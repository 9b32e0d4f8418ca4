import itertools

import numpy as np
import pytest

from hdte.data import TrialDataset
from hdte.errors import DataError, NumericalError
from hdte.estimators import (
    EffectEstimate,
    adjusted_estimate,
    cuped_adjust,
    diff_in_means,
    lin_adjust,
)
from test_wlasso import collinear_dataset


def test_diff_in_means_hand_example():
    """Worked example: treated outcomes (3, 5), control (1, 1)."""
    ds = TrialDataset([1, 1, 0, 0], [[3.0], [5.0], [1.0], [1.0]])
    est = diff_in_means(ds)
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
    est = diff_in_means(ds)
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
        taus.append(diff_in_means(TrialDataset(t, y)).tau_hat[0])
    assert np.mean(taus) == pytest.approx(true_ate, abs=1e-12)


def test_diff_in_means_subset_selects_columns():
    rng = np.random.default_rng(2)
    ds = TrialDataset(rng.integers(0, 2, 40), rng.standard_normal((40, 5)))
    full = diff_in_means(ds)
    sub = diff_in_means(ds, subset=[4, 1])
    assert sub.index_set == (4, 1)
    np.testing.assert_allclose(sub.tau_hat, full.tau_hat[[4, 1]])
    np.testing.assert_allclose(sub.sigma_hat, full.sigma_hat[np.ix_([4, 1], [4, 1])])


def test_diff_in_means_needs_two_per_arm():
    with pytest.raises(DataError, match="at least 2"):
        diff_in_means(TrialDataset([1, 0, 0, 0], np.zeros((4, 1))))


def test_cuped_exact_on_noiseless_data():
    """With Y = 2x + 3T and x orthogonal to T in sample, the pooled slope is
    exactly 2 and the adjusted estimate is exactly 3 with zero variance."""
    t = np.array([1, 1, 0, 0])
    x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = 2.0 * x + 3.0 * t[:, None]
    ds = TrialDataset(t, y, x)
    adj = cuped_adjust(ds)
    assert adj.theta[0, 0] == pytest.approx(2.0, abs=1e-12)
    est = adjusted_estimate(ds, "cuped")
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
    plain = diff_in_means(ds)
    adjusted = adjusted_estimate(ds, "cuped")
    assert adjusted.sigma_hat[0, 0] < 0.4 * plain.sigma_hat[0, 0]
    assert adjusted.tau_hat[0] == pytest.approx(0.5, abs=0.1)


def test_cuped_slope_matches_lstsq_oracle():
    rng = np.random.default_rng(11)
    n = 80
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal((n, 2))
    ds = TrialDataset(rng.integers(0, 2, n), y, x)
    adj = cuped_adjust(ds)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    expected = np.linalg.solve(xc.T @ xc, xc.T @ yc)
    np.testing.assert_allclose(adj.theta, expected, rtol=1e-9)


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
    """When treated and control slopes differ, the per-arm adjustment stays
    consistent for the average effect; a large sample pins it down."""
    rng = np.random.default_rng(13)
    n = 4000
    x = rng.standard_normal((n, 1))
    t = rng.integers(0, 2, n)
    y = 1.0 * t[:, None] + np.where(t[:, None] == 1, 3.0, 1.0) * x \
        + 0.1 * rng.standard_normal((n, 1))
    ds = TrialDataset(t, y, x)
    est = adjusted_estimate(ds, "lin")
    assert est.tau_hat[0] == pytest.approx(1.0, abs=0.05)
    adj = lin_adjust(ds)
    theta_t, theta_c = adj.theta
    assert theta_t[0, 0] == pytest.approx(3.0, abs=0.05)
    assert theta_c[0, 0] == pytest.approx(1.0, abs=0.05)


def test_adjustment_requires_covariates_and_small_m():
    ds = TrialDataset([1, 1, 0, 0], np.zeros((4, 1)))
    with pytest.raises(DataError, match="no covariates"):
        cuped_adjust(ds)
    with pytest.raises(DataError, match="no covariates"):
        lin_adjust(ds)
    rng = np.random.default_rng(0)
    wide = TrialDataset(
        [1, 1, 0, 0], rng.standard_normal((4, 1)), rng.standard_normal((4, 3))
    )
    with pytest.raises(DataError, match="m < min"):
        lin_adjust(wide)
    square = TrialDataset(
        [1, 1, 0, 0], rng.standard_normal((4, 1)), rng.standard_normal((4, 4))
    )
    with pytest.raises(DataError, match="m < n"):
        cuped_adjust(square)


def test_singular_design_raises():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 1))
    dup = np.hstack([x, x])
    ds = TrialDataset(rng.integers(0, 2, 20), rng.standard_normal((20, 1)), dup)
    with pytest.raises(NumericalError, match=r"singular covariate design in pooled "
                                             r"adjustment \(rank 1 < m=2\)"):
        cuped_adjust(ds)


@pytest.mark.parametrize("arm", ["treated", "control"])
def test_lin_rejects_a_covariate_constant_within_one_arm(arm):
    """Centered within that arm the covariate is zero, so the arm's design
    has rank m - 1; the pooled design keeps full rank."""
    rng = np.random.default_rng(8)
    t = np.array([1, 0] * 20)
    x = rng.standard_normal((40, 2))
    x[t == (arm == "treated"), 1] = 0.3
    ds = TrialDataset(t, rng.standard_normal((40, 3)), x)
    with pytest.raises(NumericalError, match=rf"singular covariate design in {arm} "
                                             r"arm \(rank 1 < m=2\)"):
        lin_adjust(ds)
    assert cuped_adjust(ds).theta.shape == (2, 3)


@pytest.mark.parametrize("seed", [61, 62])
def test_adjustment_slopes_match_lstsq_on_nearly_collinear_covariates(seed):
    """Covariates of condition number about 1e6: pooled and per-arm slopes
    agree with least squares on the centered rows to 1e-8."""
    ds = collinear_dataset(seed)

    def oracle(rows):
        x, y = ds.covariates[rows], ds.outcomes[rows]
        return np.linalg.lstsq(x - x.mean(axis=0), y - y.mean(axis=0), rcond=None)[0]

    treated = ds.treatments == 1
    x = ds.covariates
    assert 1e5 < np.linalg.cond(x - x.mean(axis=0)) < 1e7
    np.testing.assert_allclose(cuped_adjust(ds).theta, oracle(slice(None)), rtol=1e-8)
    for got, rows in zip(lin_adjust(ds).theta, (treated, ~treated)):
        np.testing.assert_allclose(got, oracle(rows), rtol=1e-8)


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
    rng = np.random.default_rng(3)
    ds = TrialDataset(rng.integers(0, 2, 30), rng.standard_normal((30, 2)))
    a = adjusted_estimate(ds, "dim")
    b = diff_in_means(ds)
    np.testing.assert_array_equal(a.tau_hat, b.tau_hat)
    with pytest.raises(DataError, match="unknown estimation method"):
        adjusted_estimate(ds, "ols")


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
    assert diff_in_means(ds, [4]).index_set == (4,)
    with pytest.raises(AssertionError, match="validated again"):
        EffectEstimate(np.zeros(1), np.eye(1), 2, 2, 4, "dim", (0,))
