import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from hdte.data import TrialDataset
from hdte.errors import DataError, NumericalError
from hdte.estimators import EffectEstimate, adjusted_estimate
from test_wlasso import collinear_dataset


def test_diff_in_means_hand_example():
    """Worked example: treated outcomes (3, 5), control (1, 1)."""
    ds = TrialDataset([1, 1, 0, 0], [[3.0], [5.0], [1.0], [1.0]])
    est = adjusted_estimate(ds, "dim")
    assert est.tau_hat[0] == pytest.approx(3.0)
    # treated scatter 2, control scatter 0: (4/2) * 2/2 + (4/2) * 0/2 = 2
    assert est.sigma_hat[0, 0] == pytest.approx(2.0)
    assert (est.n_t, est.n_c, est.n) == (2, 2, 4)
    assert est.index_set == (0,)


def test_diff_in_means_covariance_matches_per_arm_scatter():
    rng = np.random.default_rng(8)
    n = 60
    t = np.zeros(n, dtype=int)
    t[:25] = 1
    rng.shuffle(t)
    y = rng.standard_normal((n, 4)) @ rng.standard_normal((4, 4))
    ds = TrialDataset(t, y)
    est = adjusted_estimate(ds, "dim")
    n_t = t.sum()
    n_c = n - n_t
    cov_t = np.cov(y[t == 1].T, ddof=0)
    cov_c = np.cov(y[t == 0].T, ddof=0)
    expected = (n / n_t) * cov_t + (n / n_c) * cov_c
    np.testing.assert_allclose(est.sigma_hat, expected, rtol=1e-12)


def test_diff_in_means_unbiased_over_assignments():
    """Averaging tau_hat over all assignments of fixed size recovers the
    mean unit-level effect, since each unit's potential outcomes are fixed."""
    y1 = np.array([3.0, 1.0, 0.0, 2.0, 4.0])
    y0 = np.array([1.0, 1.0, -1.0, 0.0, 2.0])
    true_ate = (y1 - y0).mean()
    n, n_t = 5, 2
    taus = []
    for chosen in itertools.combinations(range(n), n_t):
        t = np.zeros(n, dtype=int)
        t[list(chosen)] = 1
        y = np.where(t == 1, y1, y0)[:, None]
        taus.append(adjusted_estimate(TrialDataset(t, y), "dim").tau_hat[0])
    assert np.mean(taus) == pytest.approx(true_ate, abs=1e-12)


def test_diff_in_means_subset_selects_columns():
    rng = np.random.default_rng(2)
    ds = TrialDataset(rng.integers(0, 2, 40), rng.standard_normal((40, 5)))
    full = adjusted_estimate(ds, "dim")
    sub = adjusted_estimate(ds, "dim", subset=[4, 1])
    assert sub.index_set == (4, 1)
    np.testing.assert_allclose(sub.tau_hat, full.tau_hat[[4, 1]])
    np.testing.assert_allclose(sub.sigma_hat, full.sigma_hat[np.ix_([4, 1], [4, 1])])


def test_diff_in_means_needs_two_per_arm():
    with pytest.raises(DataError, match=r"^each arm needs at least 2 units, got n_t=1, n_c=3$"):
        adjusted_estimate(TrialDataset([1, 0, 0, 0], np.zeros((4, 1))), "dim")


def lstsq_oracle(ds, method):
    """``(tau_hat, sigma_hat)`` of the ``"cuped"`` or ``"lin"`` estimate
    rebuilt from least-squares slopes on the centered rows (all rows, or each
    arm's) and numpy's within-arm covariances."""
    def slopes(rows):
        x, y = ds.covariates[rows], ds.outcomes[rows]
        return np.linalg.lstsq(x - x.mean(axis=0), y - y.mean(axis=0), rcond=None)[0]

    treated = ds.treatments == 1
    n, n_t = ds.n, int(treated.sum())
    n_c = n - n_t
    theta = (slopes(slice(None)) if method == "cuped"
             else (n_c / n) * slopes(treated) + (n_t / n) * slopes(~treated))
    y = ds.outcomes - ds.covariates @ theta
    tau = y[treated].mean(axis=0) - y[~treated].mean(axis=0)
    sigma = sum((n / arm.sum()) * np.atleast_2d(np.cov(y[arm].T, ddof=0))
                for arm in (treated, ~treated))
    return tau, sigma


def assert_matches_oracle(ds, method, rtol, atol=0.0):
    est = adjusted_estimate(ds, method)
    tau, sigma = lstsq_oracle(ds, method)
    np.testing.assert_allclose(est.tau_hat, tau, rtol=rtol, atol=atol)
    np.testing.assert_allclose(est.sigma_hat, sigma, rtol=rtol, atol=atol)
    return est


def test_cuped_exact_on_noiseless_data():
    """With Y = 2x + 3T and x orthogonal to T in sample, the pooled slope is
    exactly 2 and the adjusted estimate is exactly 3 with zero variance."""
    t = np.array([1, 1, 0, 0])
    x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = 2.0 * x + 3.0 * t[:, None]
    ds = TrialDataset(t, y, x)
    est = assert_matches_oracle(ds, "cuped", rtol=0.0, atol=1e-12)
    assert est.tau_hat[0] == pytest.approx(3.0, abs=1e-12)
    assert est.sigma_hat[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert est.method == "cuped"


def test_cuped_reduces_variance_with_predictive_covariate():
    rng = np.random.default_rng(4)
    n = 2000
    x = rng.standard_normal((n, 1))
    t = rng.integers(0, 2, n)
    y = 0.5 * t[:, None] + 2.0 * x + rng.standard_normal((n, 1))
    ds = TrialDataset(t, y, x)
    plain = adjusted_estimate(ds, "dim")
    adjusted = adjusted_estimate(ds, "cuped")
    assert adjusted.sigma_hat[0, 0] < 0.4 * plain.sigma_hat[0, 0]
    assert adjusted.tau_hat[0] == pytest.approx(0.5, abs=0.1)


@pytest.mark.parametrize("method", ["cuped", "lin"])
def test_adjustment_matches_lstsq_oracle(method):
    rng = np.random.default_rng(11)
    n = 80
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal((n, 2)) + x @ rng.standard_normal((3, 2))
    assert_matches_oracle(TrialDataset(rng.integers(0, 2, n), y, x), method, rtol=1e-9)


def test_lin_equals_cuped_when_arms_share_the_map():
    """Noiseless Y = 1 + 2x in both arms: per-arm and pooled slopes agree, so
    both adjustments give identical estimates."""
    rng = np.random.default_rng(6)
    n = 24
    x = rng.standard_normal((n, 1))
    t = np.array([1, 0] * (n // 2))
    y = 1.0 + 2.0 * x
    ds = TrialDataset(t, y, x)
    est_c = adjusted_estimate(ds, "cuped")
    est_l = adjusted_estimate(ds, "lin")
    np.testing.assert_allclose(est_l.tau_hat, est_c.tau_hat, atol=1e-10)
    np.testing.assert_allclose(est_l.sigma_hat, est_c.sigma_hat, atol=1e-10)


def test_lin_handles_heterogeneous_slopes():
    """When treated and control slopes differ (3 and 1), the per-arm
    adjustment, built from each arm's own slopes, stays consistent for the
    average effect; a large sample pins it down."""
    rng = np.random.default_rng(13)
    n = 4000
    x = rng.standard_normal((n, 1))
    t = rng.integers(0, 2, n)
    y = 1.0 * t[:, None] + np.where(t[:, None] == 1, 3.0, 1.0) * x \
        + 0.1 * rng.standard_normal((n, 1))
    ds = TrialDataset(t, y, x)
    est = assert_matches_oracle(ds, "lin", rtol=1e-9)
    assert est.tau_hat[0] == pytest.approx(1.0, abs=0.05)


def test_adjustment_requires_covariates_and_small_m():
    ds = TrialDataset([1, 1, 0, 0], np.zeros((4, 1)))
    for method in ("cuped", "lin"):
        with pytest.raises(DataError, match=r"^dataset has no covariates to adjust on$"):
            adjusted_estimate(ds, method)
    rng = np.random.default_rng(0)
    wide = TrialDataset(
        [1, 1, 0, 0], rng.standard_normal((4, 1)), rng.standard_normal((4, 3))
    )
    with pytest.raises(DataError, match=r"^per-arm adjustment needs m < min\(n_t, n_c\), "
                                        r"got m=3, n_t=2, n_c=2$"):
        adjusted_estimate(wide, "lin")
    square = TrialDataset(
        [1, 1, 0, 0], rng.standard_normal((4, 1)), rng.standard_normal((4, 4))
    )
    with pytest.raises(DataError, match=r"^adjustment needs m < n, got m=4, n=4$"):
        adjusted_estimate(square, "cuped")


def test_each_adjustment_checks_in_its_order():
    """``cuped`` checks ``m < n`` before the arms, ``lin`` the arms before
    ``m < min(n_t, n_c)``."""
    rng = np.random.default_rng(0)
    ds = TrialDataset([1, 0, 0, 0], rng.standard_normal((4, 1)), rng.standard_normal((4, 4)))
    with pytest.raises(DataError, match=r"^adjustment needs m < n, got m=4, n=4$"):
        adjusted_estimate(ds, "cuped")
    with pytest.raises(DataError, match=r"^each arm needs at least 2 units, got n_t=1, n_c=3$"):
        adjusted_estimate(ds, "lin")


def test_singular_design_raises():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 1))
    dup = np.hstack([x, x])
    ds = TrialDataset(rng.integers(0, 2, 20), rng.standard_normal((20, 1)), dup)
    with pytest.raises(NumericalError, match=r"^singular covariate design in pooled "
                                             r"adjustment \(rank 1 < m=2\)"):
        adjusted_estimate(ds, "cuped")


@pytest.mark.parametrize("arm", ["treated", "control"])
def test_lin_rejects_a_covariate_constant_within_one_arm(arm):
    """Centered within that arm the covariate is zero, so the arm's design
    has rank m - 1; the pooled design keeps full rank."""
    rng = np.random.default_rng(8)
    t = np.array([1, 0] * 20)
    x = rng.standard_normal((40, 2))
    x[t == (arm == "treated"), 1] = 0.3
    ds = TrialDataset(t, rng.standard_normal((40, 3)), x)
    with pytest.raises(NumericalError, match=rf"^singular covariate design in {arm} "
                                             r"arm \(rank 1 < m=2\)"):
        adjusted_estimate(ds, "lin")
    assert_matches_oracle(ds, "cuped", rtol=1e-9)


@pytest.mark.parametrize("seed", [61, 62])
def test_adjustment_matches_lstsq_on_nearly_collinear_covariates(seed):
    """Covariates of condition number about 1e6: pooled and per-arm
    estimates agree with those from least squares on the centered rows to
    1e-8."""
    ds = collinear_dataset(seed)
    x = ds.covariates
    assert 1e5 < np.linalg.cond(x - x.mean(axis=0)) < 1e7
    for method in ("cuped", "lin"):
        assert_matches_oracle(ds, method, rtol=1e-8)


def test_adjusted_estimate_restrict_before_or_after_agree():
    rng = np.random.default_rng(21)
    n = 50
    ds = TrialDataset(
        rng.integers(0, 2, n), rng.standard_normal((n, 6)), rng.standard_normal((n, 2))
    )
    direct = adjusted_estimate(ds, "cuped", subset=[5, 0, 3])
    manual = adjusted_estimate(ds.restrict_outcomes([5, 0, 3]), "cuped")
    np.testing.assert_allclose(direct.tau_hat, manual.tau_hat, rtol=1e-12)
    np.testing.assert_allclose(direct.sigma_hat, manual.sigma_hat, rtol=1e-12)
    assert direct.index_set == (5, 0, 3)
    assert manual.index_set == (0, 1, 2)


@pytest.mark.parametrize("method", ["dim", "cuped", "lin"])
@pytest.mark.parametrize("bad", [[-1], [0, 6]])
def test_a_subset_index_outside_the_columns_is_a_data_error(method, bad):
    """An index below 0 is not the last column, and one at p or above is
    not a bare IndexError: both are rejected by ``restrict_outcomes``."""
    rng = np.random.default_rng(22)
    ds = TrialDataset(np.array([1, 0] * 20), rng.standard_normal((40, 6)),
                      rng.standard_normal((40, 2)))
    with pytest.raises(DataError, match="out of range for p=6"):
        adjusted_estimate(ds, method, subset=bad)


def test_adjusted_estimate_dim_passthrough():
    """``"dim"`` gives the same bits with or without covariates; an unknown
    method is reported before any other check."""
    rng = np.random.default_rng(3)
    t, y = rng.integers(0, 2, 30), rng.standard_normal((30, 2))
    a = adjusted_estimate(TrialDataset(t, y, rng.standard_normal((30, 40))), "dim")
    b = adjusted_estimate(TrialDataset(t, y), "dim")
    assert a.tau_hat.tobytes() == b.tau_hat.tobytes()
    assert a.sigma_hat.tobytes() == b.sigma_hat.tobytes()
    with pytest.raises(DataError, match=r"^unknown estimation method 'ols'$"):
        adjusted_estimate(TrialDataset(t, y), "ols", subset=[7])


def test_effect_estimate_validation():
    with pytest.raises(NumericalError, match="symmetric"):
        EffectEstimate(
            np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]), 2, 2, 4, "dim", (0, 1)
        )
    with pytest.raises(NumericalError, match="negative diagonal"):
        EffectEstimate(np.zeros(1), np.array([[-1.0]]), 2, 2, 4, "dim", (0,))
    with pytest.raises(DataError, match="shape"):
        EffectEstimate(np.zeros(2), np.eye(3), 2, 2, 4, "dim", (0, 1))
    with pytest.raises(DataError, match="add up"):
        EffectEstimate(np.zeros(1), np.eye(1), 2, 3, 4, "dim", (0,))


def test_package_estimates_skip_revalidation(monkeypatch):
    """Estimates built inside the package carry an exactly symmetric
    ``sigma_hat`` by construction and are not validated again; they equal
    the validated estimates of the same fields. One a user builds still is
    validated."""
    rng = np.random.default_rng(5)
    ds = TrialDataset(np.tile([0, 1], 20), rng.standard_normal((40, 5)),
                      rng.standard_normal((40, 2)))
    calls = [(method, subset) for method in ("dim", "cuped", "lin")
             for subset in (None, np.array([3, 1]))]
    estimates = [adjusted_estimate(ds, method, subset) for method, subset in calls]
    checked = [EffectEstimate(est.tau_hat, est.sigma_hat, est.n_t, est.n_c, est.n,
                              est.method, est.index_set) for est in estimates]

    def no_validation(self):
        raise AssertionError("an estimate was validated again")

    monkeypatch.setattr(EffectEstimate, "__post_init__", no_validation)
    for (method, subset), want in zip(calls, checked):
        est = adjusted_estimate(ds, method, subset)
        assert est.sigma_hat.tobytes() == est.sigma_hat.T.tobytes()
        assert all(type(j) is int for j in est.index_set)
        for name in ("tau_hat", "sigma_hat"):
            assert getattr(est, name).tobytes() == getattr(want, name).tobytes()
        assert (est.n_t, est.n_c, est.n, est.method, est.index_set) == (
            want.n_t, want.n_c, want.n, want.method, want.index_set)
    assert adjusted_estimate(ds, "dim", [4]).index_set == (4,)
    with pytest.raises(AssertionError, match="validated again"):
        EffectEstimate(np.zeros(1), np.eye(1), 2, 2, 4, "dim", (0,))


RECORDED_CASES = Path(__file__).with_name("estimator_cases.txt")


def recorded_case(seed: int):
    """``(dataset, method, subset)`` of recorded case ``seed``: a small design
    of random shape, its arms sometimes under 2 units, its covariates
    sometimes missing, too many, duplicated or constant within the treated
    arm, and a subset that is all columns, some in any order (repeats and
    none among them), or one out of range."""
    rng = np.random.default_rng(seed)
    n, p, m = int(rng.integers(4, 40)), int(rng.integers(1, 6)), int(rng.integers(0, 6))
    t = (rng.random(n) < rng.uniform(0.15, 0.85)).astype(np.int64)
    y = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0)
    x = None
    if m:
        x = rng.standard_normal((n, m))
        y += x @ rng.standard_normal((m, p))
        defect = int(rng.integers(6))
        if defect == 0 and m > 1:
            x[:, -1] = x[:, 0]
        elif defect == 1:
            x[t == 1, 0] = 0.5
    method = str(rng.choice(["dim", "cuped", "lin", "ols"], p=[0.3, 0.32, 0.32, 0.06]))
    kind = int(rng.integers(7))
    subset = (None if kind == 0
              else rng.permutation(p)[: int(rng.integers(0, p + 1))] if kind == 1
              else rng.integers(0, p, int(rng.integers(1, 4))) if kind == 2
              else [int(rng.integers(p)), p if rng.random() < 0.5 else -1] if kind == 3
              else rng.integers(0, p, 1).tolist() if kind == 4
              else None)
    return TrialDataset(t, y, x), method, subset


def recorded_outcome(seed: int) -> str:
    """One line of what ``adjusted_estimate`` gives on case ``seed``: the
    hash of the bits of ``tau_hat`` and ``sigma_hat`` and the other fields,
    or the class and message of the error it raises."""
    ds, method, subset = recorded_case(seed)
    try:
        est = adjusted_estimate(ds, method, subset)
    except Exception as exc:  # every error, of any class, is part of the record
        return f"{seed} {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(est.tau_hat.tobytes() + est.sigma_hat.tobytes()).hexdigest()
    return (f"{seed} {digest[:16]} {est.n_t} {est.n_c} {est.n} {est.method} "
            f"{list(est.index_set)}")


def test_estimates_and_errors_match_the_recorded_cases():
    """``adjusted_estimate`` gives the recorded bits, fields and errors on
    every recorded case: those of the estimator before ``diff_in_means``,
    ``cuped_adjust`` and ``lin_adjust`` were folded into it."""
    want = RECORDED_CASES.read_text(encoding="utf-8").splitlines()
    assert len(want) == 400
    got = [recorded_outcome(seed) for seed in range(len(want))]
    assert [line for line in got if line not in want] == []
    assert got == want
