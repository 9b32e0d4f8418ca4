import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from hdte import data, inference
from hdte.data import TrialDataset, aggregate_columns, split_indices
from hdte.errors import DataError, HdteError, NumericalError
from hdte.estimators import EffectEstimate, adjusted_estimate
from hdte.wlasso import EnetConfig
from hdte.inference import (
    SelectionSpec,
    aggregate_pvalues,
    hotelling_pvalue,
    hotelling_statistic,
    multi_split,
    single_split_pipeline,
    split_seeds,
    z_pvalues,
)
from hdte.selection import run_selection

from conftest import split_route, traced_peak


def make_estimate(tau, sigma, n=100, method="dim"):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    n_t = n // 2
    return EffectEstimate(tau, sigma, n_t, n - n_t, n, method,
                          tuple(range(tau.shape[0])))


def planted_dataset(seed, n=400, p=10, effect=1.0, s=2):
    rng = np.random.default_rng(seed)
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    y = rng.standard_normal((n, p))
    y[:, :s] += effect * t[:, None]
    return TrialDataset(t, y)


def test_z_pvalues_frozen_example():
    """n = 100, tau = 0.2, sigma_jj = 1 gives z = 2."""
    est = make_estimate([0.2], [[1.0]], n=100)
    p = z_pvalues(est, correction=1)
    assert p[0] == pytest.approx(0.022750131948179195, rel=1e-12)
    p2 = z_pvalues(est, correction=1, two_sided=True)
    assert p2[0] == pytest.approx(2 * 0.022750131948179195, rel=1e-12)


def test_z_pvalues_correction_scales_and_caps():
    est = make_estimate([0.2, 0.0], np.eye(2), n=100)
    p = z_pvalues(est, correction=3)
    assert p[0] == pytest.approx(3 * 0.022750131948179195, rel=1e-12)
    assert p[1] == 1.0  # z = 0 tail is 0.5, correction pushes past the cap
    with pytest.raises(DataError, match="correction"):
        z_pvalues(est, correction=0)
    bad = make_estimate([0.1], [[0.0]])
    with pytest.raises(NumericalError, match="zero variance"):
        z_pvalues(bad, correction=1)


def test_z_pvalues_sign_symmetric():
    est_pos = make_estimate([0.3], [[2.0]], n=50)
    est_neg = make_estimate([-0.3], [[2.0]], n=50)
    assert z_pvalues(est_pos, 1)[0] == z_pvalues(est_neg, 1)[0]


@pytest.mark.parametrize("two_sided", [False, True])
@pytest.mark.parametrize("correction", [1, 7])
def test_z_pvalues_match_scipy_stats_bit_for_bit(two_sided, correction):
    """The tail ``ndtr(-z)`` is what ``stats.norm.sf(z)`` computes, bit for
    bit, from ``z = 0`` through the underflow near 38 to huge and infinite z."""
    rng = np.random.default_rng(12)
    tau = np.concatenate([rng.uniform(-4.2, 4.2, 993),
                          [0.0, -0.0, 3.85, 4.0, -1e150, 1e300, np.inf]])
    sigma = np.diag(rng.uniform(0.5, 2.0, tau.size))
    est = make_estimate(tau, sigma, n=100)
    z = np.sqrt(est.n) * np.abs(est.tau_hat) / np.sqrt(np.diag(est.sigma_hat))
    tail = stats.norm.sf(z)
    expected = np.minimum(1.0, correction * (2.0 * tail if two_sided else tail))
    got = z_pvalues(est, correction, two_sided=two_sided)
    assert got.tobytes() == expected.tobytes()
    assert got[-2:].tolist() == [0.0, 0.0]


def test_hotelling_pvalue_matches_scipy_stats_bit_for_bit():
    """The tail ``chdtrc(s, x)`` is what ``stats.chi2.sf(x, df=s)`` computes,
    bit for bit, for 1 to 60 degrees of freedom."""
    rng = np.random.default_rng(13)
    for s in range(1, 61):
        a = rng.standard_normal((s, s))
        sigma = a @ a.T / s + np.eye(s)
        for scale in (0.0, 0.01, 0.1, 0.3, 1.0, 3.0):
            est = make_estimate(scale * rng.standard_normal(s), sigma, n=200)
            expected = float(stats.chi2.sf(hotelling_statistic(est), df=s))
            assert np.float64(hotelling_pvalue(est)).tobytes() == np.float64(expected).tobytes()


def test_hotelling_frozen_examples():
    # worked difference-in-means example: tau = 3, sigma = 2, n = 4
    est = make_estimate([3.0], [[2.0]], n=4)
    assert hotelling_statistic(est) == pytest.approx(18.0, rel=1e-12)
    est2 = make_estimate([0.2], [[1.0]], n=100)
    assert hotelling_statistic(est2) == pytest.approx(4.0, rel=1e-12)
    assert hotelling_pvalue(est2) == pytest.approx(0.04550026389635842, rel=1e-10)


def test_hotelling_empty_subset():
    est = EffectEstimate(np.zeros(0), np.zeros((0, 0)), 2, 2, 4, "dim", ())
    assert hotelling_statistic(est) == 0.0
    assert hotelling_pvalue(est) == 1.0


def test_hotelling_invariant_under_linear_maps():
    """tau' sigma^{-1} tau is unchanged by any invertible linear recoding of
    the outcome vector."""
    rng = np.random.default_rng(6)
    tau = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 4 * np.eye(4)
    est = make_estimate(tau, sigma, n=60)
    m = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    mapped = make_estimate(m @ tau, m @ sigma @ m.T, n=60)
    assert hotelling_statistic(mapped) == pytest.approx(
        hotelling_statistic(est), rel=1e-9
    )


def test_hotelling_singular_covariance_raises():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    est = make_estimate([0.1, 0.1], sigma, n=40)
    with pytest.raises(NumericalError, match="singular"):
        hotelling_statistic(est)


def test_aggregate_pvalues_hand_cases():
    # gamma = 0.5, B = 3: order statistic ceil(1.5) = 2 of p / gamma
    col = np.array([[0.04], [0.08], [0.20]])
    assert aggregate_pvalues(col, 0.5)[0] == pytest.approx(0.16, rel=1e-12)
    # gamma = 0.25, B = 4: first order statistic
    col4 = np.array([[0.01], [0.02], [0.03], [0.04]])
    assert aggregate_pvalues(col4, 0.25)[0] == pytest.approx(0.04, rel=1e-12)
    # B = 1 reduces to min(1, p / gamma)
    assert aggregate_pvalues([[0.02]], 0.05)[0] == pytest.approx(0.4, rel=1e-12)
    assert aggregate_pvalues([[0.5]], 0.05)[0] == 1.0


def test_aggregate_pvalues_integer_edge():
    """gamma * B = 1 exactly (0.05 * 20 lands just above 1 in floats) must
    use the first order statistic, not the second."""
    pm = np.ones((20, 1))
    pm[0, 0] = 0.001
    assert aggregate_pvalues(pm, 0.05)[0] == pytest.approx(0.02, rel=1e-12)


def test_aggregate_pvalues_matches_brute_oracle():
    rng = np.random.default_rng(14)
    for _ in range(50):
        b = int(rng.integers(1, 30))
        k = int(rng.integers(1, 6))
        gamma = float(rng.uniform(0.03, 0.97))
        pm = rng.random((b, k))
        got = aggregate_pvalues(pm, gamma)
        order = max(1, math.ceil(round(gamma * b, 9)))
        expected = np.minimum(
            1.0, np.sort(pm / gamma, axis=0)[order - 1]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)


@settings(max_examples=200)
@given(data=st.data())
def test_aggregate_pvalues_is_monotone(data):
    """Raising any p-value never lowers an aggregated one."""
    b, k = data.draw(st.integers(1, 25)), data.draw(st.integers(1, 4))
    gamma = data.draw(st.floats(0.01, 0.99))
    unit = st.floats(0.0, 1.0)
    low = data.draw(arrays(np.float64, (b, k), elements=unit))
    high = np.maximum(low, data.draw(arrays(np.float64, (b, k), elements=unit)))
    assert np.all(aggregate_pvalues(low, gamma) <= aggregate_pvalues(high, gamma))


def test_aggregate_pvalues_validation():
    with pytest.raises(DataError, match="2-d"):
        aggregate_pvalues([0.1, 0.2], 0.5)
    with pytest.raises(DataError, match="gamma"):
        aggregate_pvalues([[0.1]], 0.0)
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        aggregate_pvalues([[1.5]], 0.5)
    with pytest.raises(DataError, match="at least one row"):
        aggregate_pvalues(np.zeros((0, 2)), 0.5)


def test_split_seeds_deterministic():
    a = split_seeds(42, 10)
    b = split_seeds(42, 10)
    c = split_seeds(43, 10)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.uint32 and a.shape == (10,)
    assert not np.array_equal(a, c)
    # a shorter request is a prefix of a longer one from the same seed
    np.testing.assert_array_equal(split_seeds(42, 4), a[:4])


def test_single_split_pipeline_recovers_planted_effect():
    ds = planted_dataset(3, n=600, effect=1.0, s=2)
    report = single_split_pipeline(ds, "dim", SelectionSpec(size=2), seed=5)
    assert set(report.subset) == {0, 1}
    assert list(report.per_dim) == list(report.subset)
    # corrected for the multiplicity of the subset's size
    assert list(report.per_dim.values()) == z_pvalues(report.estimate, correction=2).tolist()
    assert all(p < 0.01 for p in report.per_dim.values())
    assert report.group < 1e-6
    assert report.estimate.index_set == report.subset
    assert report.estimate.n == len(split_indices(ds.n, 0.5, 5)[1]) == 300


def test_single_split_pipeline_empty_selection():
    ds = planted_dataset(4, n=100, effect=0.0)
    report = single_split_pipeline(ds, "dim", SelectionSpec(lam=1e6), seed=2)
    assert report.subset == ()
    assert report.per_dim == {}
    assert report.group == 1.0
    assert report.estimate is None


def test_single_split_pipeline_rejects_unknown_estimator():
    ds = planted_dataset(5, n=100)
    with pytest.raises(DataError, match="unknown estimation method"):
        single_split_pipeline(ds, "anova", SelectionSpec(size=1), seed=1)


def test_selection_spec_validation_and_l1_defaults():
    with pytest.raises(DataError, match="unknown selection"):
        SelectionSpec(method="pca")
    with pytest.raises(DataError, match="needs size"):
        SelectionSpec(method="baseline")
    with pytest.raises(DataError, match="penalized"):
        SelectionSpec(method="baseline", size=1, levels=[[(0,)]])
    assert SelectionSpec(method="lasso", size=1).config.l1_ratio == 1.0
    assert SelectionSpec(method="enet", size=1).config.l1_ratio == 0.5
    custom = SelectionSpec(method="enet", size=1, config=EnetConfig(l1_ratio=0.7))
    assert custom.config.l1_ratio == 0.7
    tuned = SelectionSpec(method="enet", lam=0.1, config=EnetConfig(l1_ratio=0.7, tol=1e-9))
    assert (tuned.config.l1_ratio, tuned.config.tol) == (0.7, 1e-9)
    with pytest.raises(DataError, match="l1_ratio"):
        SelectionSpec(method="lasso", size=1, config=EnetConfig(l1_ratio=0.3))
    with pytest.raises(DataError, match="exactly one"):
        SelectionSpec(method="lasso")
    with pytest.raises(DataError, match="exactly one"):
        SelectionSpec(method="enet", size=1, lam=0.1)
    with pytest.raises(DataError, match=r"the penalty is the spec's lam=, not config.lam=0\.3"):
        SelectionSpec(size=2, config=EnetConfig(lam=0.3))
    with pytest.raises(DataError, match="not config.lam"):
        SelectionSpec(method="enet", lam=0.1, config=EnetConfig(lam=0.2))


def test_multi_split_deterministic_and_bounded():
    ds = planted_dataset(9, n=300, effect=0.8, s=1)
    r1 = multi_split(ds, B=8, method="dim", sel=SelectionSpec(size=1), seed=3)
    r2 = multi_split(ds, B=8, method="dim", sel=SelectionSpec(size=1), seed=3)
    np.testing.assert_array_equal(r1.per_dim_aggregated, r2.per_dim_aggregated)
    assert r1.group_aggregated == r2.group_aggregated
    assert r1.B == 8 and r1.gamma == 0.05
    assert np.all(r1.per_dim_aggregated >= 0) and np.all(r1.per_dim_aggregated <= 1)
    r3 = multi_split(ds, B=8, method="dim", sel=SelectionSpec(size=1), seed=4)
    assert not np.array_equal(r1.per_dim_aggregated, r3.per_dim_aggregated)


def test_multi_split_detects_strong_effect():
    ds = planted_dataset(10, n=800, effect=1.2, s=1)
    report = multi_split(ds, B=12, method="dim", sel=SelectionSpec(size=1), seed=0)
    assert report.group_aggregated < 0.01
    assert report.per_dim_aggregated[0] < 0.01
    # untouched dimensions stay at 1 (they are never selected)
    assert np.all(report.per_dim_aggregated[5:] == 1.0)


def test_multi_split_multiresolution_slots():
    """With levels (coarse, fine) over 4 base columns the aggregated vector
    has 1 + 4 slots; a strong single-column effect lands in the fine slots."""
    rng = np.random.default_rng(20)
    n = 800
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    y = rng.standard_normal((n, 4))
    y[:, 2] += 1.5 * t
    ds = TrialDataset(t, y)
    levels = [[(0, 1, 2, 3)], [(0,), (1,), (2,), (3,)]]
    sel = SelectionSpec(size=1, levels=levels)
    report = multi_split(ds, B=10, method="dim", sel=sel, seed=6)
    assert report.per_dim_aggregated.shape == (5,)
    assert report.per_dim_aggregated[1 + 2] < 0.01
    for subset in report.per_split_subsets:
        assert all(0 <= slot < 5 for slot in subset)


def test_multi_split_reports_failing_split():
    # 8 covariates cannot be adjusted per arm inside a 10-row half
    rng = np.random.default_rng(2)
    ds = TrialDataset(
        np.array([1, 0] * 10), rng.standard_normal((20, 2)),
        rng.standard_normal((20, 8))
    )
    with pytest.raises(NumericalError, match="split 0 failed"):
        multi_split(ds, B=2, method="lin", sel=SelectionSpec(size=1), seed=1)


@pytest.mark.parametrize("m, levels, match", [
    (0, [[(0, 9)]], "group 0 has column indices out of range for p=4"),
    (0, [[(0, 1, 2, 3)], [(0,), ()]], "group 1 is empty"),
    (3, [[(0, 1), (2, 3)]], r"same base layout as outcomes \(m=3, p=4\)"),
])
def test_multi_split_rejects_malformed_levels_as_data_errors(m, levels, match):
    """Groupings that do not fit the dataset fail as data errors before the
    first split, not as a numerical failure of split 0."""
    ds = planted_dataset(4, n=100, p=4)
    if m:
        ds = TrialDataset(ds.treatments, ds.outcomes,
                          np.random.default_rng(4).standard_normal((ds.n, m)))
    with pytest.raises(DataError, match=match):
        multi_split(ds, B=3, method="dim", sel=SelectionSpec(size=1, levels=levels))


@pytest.mark.parametrize("kwargs, match", [
    (dict(method="foo"), "unknown estimation method 'foo'"),
    (dict(method="cuped"), "no covariates to adjust on"),
    (dict(sel=SelectionSpec(size=5)), r"sizes must be within \[1, p=4\]"),
    (dict(sel=SelectionSpec(size=3, levels=[[(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]])),
     r"sizes must be within \[1, p=2\]"),
    (dict(fraction=0.01), "fewer than 2 rows"),
])
def test_multi_split_rejects_a_call_that_fails_every_split(kwargs, match):
    """A mistake that does not depend on the rows a split draws is a data
    error, not a numerical failure of split 0."""
    ds = planted_dataset(4, n=100, p=4)
    with pytest.raises(DataError, match=match):
        multi_split(ds, **{"B": 2, "seed": 1, **kwargs})


def test_multi_split_validates_b():
    ds = planted_dataset(1, n=100)
    with pytest.raises(DataError, match="B must be"):
        multi_split(ds, B=0)


@pytest.mark.parametrize("gamma", [0.0, 1.5, -0.1, math.nan])
def test_multi_split_checks_gamma_before_the_first_split(monkeypatch, gamma):
    """A ``gamma`` outside (0, 1) fails every aggregation, so it is a data
    error raised before any split runs here or in a forked child."""
    ds = planted_dataset(1, n=100)
    calls = []
    monkeypatch.setattr(inference, "_split_report", lambda *args: calls.append(args))
    forks = split_route(monkeypatch, 2)
    with pytest.raises(DataError, match=r"gamma must be in \(0, 1\)"):
        multi_split(ds, B=10, gamma=gamma)
    assert not calls and not forks


@pytest.mark.parametrize("run", [
    lambda ds: multi_split(ds, B=10, seed=-1),
    lambda ds: single_split_pipeline(ds, "dim", SelectionSpec(size=1), seed=-1),
], ids=["multi_split", "single_split_pipeline"])
def test_a_negative_seed_is_a_data_error_before_the_first_split(monkeypatch, run):
    """numpy rejects a negative seed with a bare ``ValueError``; it is the
    data error of ``check_seed``, raised before any split runs here or in a
    forked child."""
    ds = planted_dataset(1, n=100)
    calls = []
    monkeypatch.setattr(inference, "_split_report", lambda *args: calls.append(args))
    forks = split_route(monkeypatch, 2)
    with pytest.raises(DataError, match=r"^seed must be >= 0, got -1$"):
        run(ds)
    assert not calls and not forks
    with pytest.raises(DataError, match=r"^seed must be >= 0, got -3$"):
        split_indices(ds.n, 0.5, -3)


def _covariate_dataset():
    """240 units, 12 outcomes driven by 12 covariates of their layout, and
    an effect on outcomes 4 and 5."""
    rng = np.random.default_rng(7)
    n, p = 240, 12
    t = rng.permutation(np.tile([0, 1], n // 2))
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, p)) + 0.5 * x
    y[:, 4:6] += 0.8 * t[:, None]
    return TrialDataset(t, y, x)


THREE_LEVELS = ([tuple(range(k, k + 4)) for k in range(0, 12, 4)],
                [(k, k + 1) for k in range(0, 12, 2)], [(k,) for k in range(12)])


@pytest.mark.parametrize("method, sel", [
    ("cuped", SelectionSpec(size=2)),
    ("lin", SelectionSpec("baseline", size=2)),
    ("cuped", SelectionSpec(size=1, levels=THREE_LEVELS)),
])
def test_multi_split_splits_are_the_single_split_pipeline(monkeypatch, method, sel):
    """Split ``b`` of :func:`multi_split` gives what
    :func:`single_split_pipeline` gives at ``fraction`` and ``seeds[b]``,
    bit for bit: the subset (in level slots), the per-dimension p-values and
    the group p-value."""
    ds = _covariate_dataset()
    p = ds.p
    matrices, aggregate = [], inference.aggregate_pvalues
    monkeypatch.setattr(inference, "aggregate_pvalues",
                        lambda pm, gamma: matrices.append(pm.copy()) or aggregate(pm, gamma))
    report = multi_split(ds, B=6, gamma=0.5, method=method, sel=sel, seed=11, fraction=0.6)
    per_dim, group = matrices
    sizes = [len(level) for level in sel.levels or [range(p)]]
    offsets = np.cumsum([0, *sizes])
    for b, seed in enumerate(split_seeds(11, 6)):
        single = single_split_pipeline(ds, method, sel, int(seed), fraction=0.6)
        first, _ = split_indices(ds.n, 0.6, int(seed))
        level = run_selection(ds.take_rows(first), sel, method)[1] or 0
        slots = tuple(int(offsets[level]) + j for j in single.subset)
        assert report.per_split_subsets[b] == slots and single.subset
        want = np.ones(offsets[-1])
        want[list(slots)] = [single.per_dim[j] for j in single.subset]
        assert per_dim[b].tobytes() == want.tobytes()
        assert group[b].tobytes() == np.array([single.group]).tobytes()


@pytest.mark.parametrize("method, sel", [
    ("cuped", SelectionSpec(size=2)),
    ("dim", SelectionSpec("enet", lam=0.05)),
    ("lin", SelectionSpec("baseline", size=3)),
    ("cuped", SelectionSpec(size=1, levels=THREE_LEVELS)),
])
def test_a_split_is_the_selection_and_test_on_taken_halves(method, sel):
    """A split selects on its first half's rows gathered from the dataset
    and tests on the subset's columns of the second half: the report of
    selecting on ``take_rows`` of the first half and estimating on
    ``take_rows`` of the second, bit for bit."""
    ds = _covariate_dataset()
    for seed in range(3):
        report = single_split_pipeline(ds, method, sel, seed, fraction=0.6)
        first, second = split_indices(ds.n, 0.6, seed)
        (result,), level = run_selection(ds.take_rows(first), sel, method)
        test_half = ds.take_rows(second)
        if level is not None:
            test_half = aggregate_columns(test_half, sel.levels[level])
        want = adjusted_estimate(test_half, method, result.selected)
        assert report.subset == result.selected and report.subset
        for name in ("tau_hat", "sigma_hat"):
            assert getattr(report.estimate, name).tobytes() == getattr(want, name).tobytes()
        assert (report.estimate.index_set, report.estimate.n) == (want.index_set, want.n)
        assert report.group == hotelling_pvalue(want)


@pytest.mark.parametrize("n, p, m", [(400, 2000, 10), (200, 2000, 5)])
def test_multi_split_holds_one_half_at_a_time(n, p, m):
    """Each split gathers its first half's rows into the selection's
    weighted columns, concentrates covariates out in place of them, and
    takes the subset's columns of the test half after the selection has
    returned: a multi-split at p >> n peaks at most 1.3 half outcome
    matrices above its dataset (1.14 and 1.26 here: the concentrated rows
    with a gathered chunk, or with the path's O(p) arrays), where the
    weighted columns beside their residuals took 2.17 and 2.32, the first
    half as a dataset 3.2, and both halves, a centered copy and a stacked
    copy 4.2."""
    rng = np.random.default_rng(1)
    t = rng.permutation(np.tile([0, 1], n // 2))
    y = rng.standard_normal((n, p))
    y[:, :3] += t[:, None]
    ds = TrialDataset(t, y, rng.standard_normal((n, m)))
    for method in ("cuped", "dim"):
        report, peak = traced_peak(lambda: multi_split(
            ds, B=2, method=method, sel=SelectionSpec(size=5), seed=0))
        assert all(len(subset) == 5 for subset in report.per_split_subsets)
        assert peak <= 1.3 * (n // 2) * p * 8


def _outcome(call):
    """A report's bits, or the type and text of the error it raised."""
    try:
        report = call()
    except HdteError as exc:
        return type(exc), str(exc)
    return (report.per_dim_aggregated.tobytes(), report.group_aggregated,
            report.per_split_subsets)


def _both_routes(monkeypatch, call, cpus: int):
    """``call``'s outcome with its splits shared among ``cpus`` processes
    and serially; each route forks as it should and leaves no child."""
    outcomes = []
    for k in (cpus, 1):
        with monkeypatch.context() as patch:
            forks = split_route(patch, k)
            outcomes.append(_outcome(call))
        assert len(forks) == k - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return outcomes


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("method, sel", [
    ("cuped", SelectionSpec(size=2)),
    ("lin", SelectionSpec("baseline", size=2)),
    ("cuped", SelectionSpec(size=1, levels=THREE_LEVELS)),
    ("dim", SelectionSpec(lam=1e3)),   # every split selects nothing
])
def test_shared_splits_give_the_serial_report(monkeypatch, cpus, method, sel):
    ds = _covariate_dataset()
    shared, serial = _both_routes(monkeypatch, lambda: multi_split(
        ds, B=9, gamma=0.3, method=method, sel=sel, seed=5), cpus)
    assert shared == serial and isinstance(serial[0], bytes)
    if sel.lam is not None:
        assert serial[2] == ((),) * 9


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_three_level_multi_split_plans_each_level_once(monkeypatch, tmp_path, cpus):
    """Each level's grouping is planned once, when multi_split checks it;
    the splits, in this process or a forked child, read that plan to select
    and to average the test half."""
    log, plan = tmp_path / "plans", data._derive_plan

    def logged(grouping, p):
        with open(log, "a") as out:
            out.write(f"{len(grouping)} {p}\n")
        return plan(grouping, p)

    monkeypatch.setattr(data, "_PLANS", {})
    monkeypatch.setattr(data, "_derive_plan", logged)
    forks = split_route(monkeypatch, cpus)
    sel = SelectionSpec(size=1, levels=THREE_LEVELS)
    report = multi_split(_covariate_dataset(), B=9, method="cuped", sel=sel, seed=5)
    assert len(forks) == cpus - 1 and all(report.per_split_subsets)
    assert log.read_text().split("\n") == ["3 12", "6 12", "12 12", ""]


def test_a_multi_split_below_the_crossover_stays_serial(monkeypatch):
    ds = _covariate_dataset()
    with monkeypatch.context() as patch:
        forks = split_route(patch, 2)
        multi_split(ds, B=inference._FORK_MIN_SPLITS - 1, method="dim")
        assert not forks
        multi_split(ds, B=inference._FORK_MIN_SPLITS, method="dim")
        assert len(forks) == 1


def _failing_dataset():
    """Ten covariates adjusted per arm inside a 24-row half: whether a
    split fails depends on its rows."""
    rng = np.random.default_rng(1)
    t = rng.permutation(np.tile([1, 0], 24))
    return TrialDataset(t, rng.standard_normal((48, 3)), rng.standard_normal((48, 10)))


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("seed, first", [(4, 3), (10, 1)])
def test_shared_splits_raise_for_the_first_failing_split(monkeypatch, cpus, seed, first):
    """Splits 3, 5, 6 and 7 fail at seed 4, and 1, 4 and 6-9 at seed 10: the
    first is in a child's share or in this process's, and other shares fail
    later or not at all. Either way the error names the first failing split,
    with the serial route's text."""
    ds = _failing_dataset()
    shared, serial = _both_routes(monkeypatch, lambda: multi_split(
        ds, B=10, method="lin", sel=SelectionSpec(size=1), seed=seed), cpus)
    assert shared == serial
    assert serial[0] is NumericalError and serial[1].startswith(f"split {first} failed: ")


@pytest.mark.parametrize("fault", ["killed", "raises"])
def test_a_child_that_dies_leaves_its_share_to_this_process(monkeypatch, fault):
    """A child killed mid-run, or one raising an error other than a split's,
    sends no outcomes; its splits are run here, and the report is the
    serial one."""
    ds = _covariate_dataset()
    parent, split_report = os.getpid(), inference._split_report

    def faulty(*args):
        if os.getpid() != parent:
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("not a split's error")
        return split_report(*args)

    call = lambda: multi_split(ds, B=8, method="cuped", sel=SelectionSpec(size=2), seed=2)
    serial = _both_routes(monkeypatch, call, 2)[1]
    monkeypatch.setattr(inference, "_split_report", faulty)
    shared = _both_routes(monkeypatch, call, 2)[0]
    assert shared == serial


def test_a_second_thread_keeps_multi_split_serial(tmp_path):
    """In a process with one BLAS thread, a multi-split on 2 CPUs forks one
    child; once a second thread is alive, it never forks. Nor do forks
    nest: an experiment of one replicate leaves its multi-split of 8 splits
    to fork one child, while one of 2 replicates forks one child for its
    replicates and neither it nor the child forks a split share. The
    child's forks are counted through a file."""
    code = (
        "import os, pathlib, sys, threading\n"
        "for var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
        "    os.environ[var] = '1'\n"
        "import numpy as np\n"
        "from hdte.data import TrialDataset\n"
        "from hdte.inference import SelectionSpec, multi_split\n"
        "from hdte.simharness import TraceExperimentConfig, run_semisynth_experiment\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "fork = os.fork\n"
        "def counted():\n"
        "    with open(sys.argv[1], 'a') as log:\n"
        "        log.write(f'{os.getpid()}\\n')\n"
        "    return fork()\n"
        "os.fork = counted\n"
        "def forks(call):\n"
        "    log = pathlib.Path(sys.argv[1])\n"
        "    log.write_text('')\n"
        "    call()\n"
        "    pids = log.read_text().split()\n"
        "    return len(pids) if set(pids) <= {str(os.getpid())} else pids\n"
        "rng = np.random.default_rng(0)\n"
        "ds = TrialDataset(np.tile([0, 1], 50), rng.standard_normal((100, 4)))\n"
        "counts = [forks(lambda: multi_split(ds, B=8, sel=SelectionSpec(size=1)))]\n"
        "stop = threading.Event()\n"
        "waiter = threading.Thread(target=stop.wait)\n"
        "waiter.start()\n"
        "try:\n"
        "    counts.append(forks(lambda: multi_split(ds, B=8, sel=SelectionSpec(size=1))))\n"
        "finally:\n"
        "    stop.set()\n"
        "    waiter.join()\n"
        "config = TraceExperimentConfig(n=80, effect_magnitude=25.0, seed=0)\n"
        "for replicates in (1, 2):\n"
        "    results = []\n"
        "    counts.append(forks(lambda: results.append(run_semisynth_experiment(\n"
        "        config, replicates, 13, B=8, gamma=0.25, estimator='dim'))))\n"
        "    counts.append(results[0]['proposed'].failures)\n"
        "print(counts)\n"
    )
    src = str(Path(inference.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "forks")], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[1, 0, 1, 0, 1, 0]"
