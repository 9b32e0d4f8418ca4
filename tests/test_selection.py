import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdte.data import TrialDataset, aggregate_columns
from hdte.errors import DataError, HdteError, NumericalError
from hdte.estimators import EffectEstimate, adjusted_estimate
from hdte.selection import (
    SelectionResult,
    SelectionSpec,
    baseline_select,
    method_l1_ratio,
    population_beta_star,
    run_selection,
)
from hdte import wlasso
from hdte.wlasso import EnetConfig, WeightedProblem, _kkt_violation, fit_weighted_enet

from conftest import traced_peak


def planted_dataset(seed, n=200, p=8, effects=(1.5, 1.0, 0.6)):
    rng = np.random.default_rng(seed)
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    y = rng.standard_normal((n, p))
    for j, a in enumerate(effects):
        y[:, j] += a * t
    return TrialDataset(t, y)


def select(ds, **spec):
    """The one selection :func:`run_selection` makes for ``SelectionSpec(**spec)``."""
    (result,), _ = run_selection(ds, SelectionSpec(**spec))
    return result


def size_selections(ds, sizes, method="lasso", config=EnetConfig()):
    """:func:`run_selection`'s selections at several ``sizes``, by size."""
    sizes = list(sizes)
    results, _ = run_selection(ds, SelectionSpec(method, size=1, config=config), sizes=sizes)
    return dict(zip(sizes, results))


def test_baseline_select_orders_by_studentized_effect():
    est = EffectEstimate(
        np.array([1.0, 2.0, 2.0, 0.5]), np.eye(4), 10, 10, 20, "dim", (0, 1, 2, 3)
    )
    sel = baseline_select(est, 3)
    # columns 1 and 2 tie at score 2; the lower index wins
    assert sel.selected == (1, 2, 0)
    assert sel.scores == (2.0, 2.0, 1.0)
    assert sel.method == "baseline"
    assert sel.tuning == 3.0
    assert sel.weighted_rss is None


def test_baseline_select_maps_through_index_set():
    est = EffectEstimate(
        np.array([0.5, 3.0]), np.eye(2), 10, 10, 20, "dim", (4, 7)
    )
    sel = baseline_select(est, 1)
    assert sel.selected == (7,)


def test_baseline_select_validation():
    est = EffectEstimate(np.ones(3), np.eye(3), 5, 5, 10, "dim", (0, 1, 2))
    with pytest.raises(DataError, match="size"):
        baseline_select(est, 0)
    with pytest.raises(DataError, match="size"):
        baseline_select(est, 4)
    degenerate = EffectEstimate(
        np.ones(2), np.diag([1.0, 0.0]), 5, 5, 10, "dim", (0, 1)
    )
    with pytest.raises(NumericalError, match="zero estimated variance"):
        baseline_select(degenerate, 1)


def test_a_size_selection_finds_planted_columns():
    ds = planted_dataset(1)
    sel = select(ds, size=3)
    assert set(sel.selected) == {0, 1, 2}
    assert sel.selected[0] == 0  # strongest effect enters the path first
    assert sel.method == "lasso"
    assert sel.weighted_rss is not None and sel.weighted_rss > 0


def test_size_selections_are_nested_prefixes():
    ds = planted_dataset(5)
    picks = size_selections(ds, [1, 2, 3, 5])
    for a, b in zip([1, 2, 3], [2, 3, 5]):
        assert picks[b].selected[: a] == picks[a].selected
    # the restricted fit improves as the subset grows
    rss = [picks[s].weighted_rss for s in (1, 2, 3, 5)]
    assert all(x >= y - 1e-12 for x, y in zip(rss, rss[1:]))
    assert all(picks[s].tuning > 0 for s in picks)


def test_a_penalty_selection_matches_single_fit():
    ds = planted_dataset(9)
    lam = 0.15
    sel = select(ds, lam=lam)
    fit = fit_weighted_enet(ds, EnetConfig(lam=lam))
    assert set(sel.selected) == set(fit.active_set)
    mags = [abs(fit.beta[j]) for j in sel.selected]
    assert mags == sorted(mags, reverse=True)
    assert sel.tuning == pytest.approx(lam)


def test_nonconverged_fit_is_a_numerical_error():
    """The routes that iterate (an elastic-net size selection walks its grid,
    a penalty selection solves one fit) fail loudly at ``max_iter``; a lasso
    size selection reads the path's knots and does not iterate."""
    ds = planted_dataset(9)
    with pytest.raises(NumericalError,
                       match=r"did not converge at lambda=\S+ within max_iter=1 sweeps"):
        size_selections(ds, [2], "enet", EnetConfig(max_iter=1))
    with pytest.raises(NumericalError, match=r"at lambda=0\.15 within max_iter=1"):
        select(ds, lam=0.15, config=EnetConfig(max_iter=1))
    assert size_selections(ds, [2], config=EnetConfig(max_iter=1)) == size_selections(ds, [2])


def test_a_size_selection_reports_exhaustion():
    rng = np.random.default_rng(3)
    n = 60
    t = np.array([1, 0] * (n // 2))
    y = rng.standard_normal((n, 3))
    y[:, 2] = 4.0  # constant column can never activate
    ds = TrialDataset(t, y)
    with pytest.raises(DataError, match="cannot select 3"):
        select(ds, size=3)


def test_size_selections_validate_sizes():
    ds = planted_dataset(4, p=4)
    with pytest.raises(DataError, match="nonempty"):
        size_selections(ds, [])
    with pytest.raises(DataError, match="within"):
        size_selections(ds, [0])
    with pytest.raises(DataError, match="within"):
        size_selections(ds, [5])
    with pytest.raises(DataError, match="within"):
        select(ds, size=5)


def test_population_beta_star_identity_example():
    """sigma_z = I, pi = 1/2, tau = e1: the closed form gives beta = e1 / 2."""
    tau = np.array([1.0, 0.0, 0.0])
    target = population_beta_star(tau, np.eye(3), 0.5)
    np.testing.assert_allclose(target.beta_star, [0.5, 0.0, 0.0], atol=1e-14)
    assert target.support == (0,)
    assert target.s_star == 1


def test_population_beta_star_matches_inverse_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = int(rng.integers(2, 7))
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + p * np.eye(p)
        tau = rng.standard_normal(p)
        pi = float(rng.uniform(0.2, 0.8))
        target = population_beta_star(tau, sigma, pi)
        r = (1.0 - pi) / pi
        c = r + 1.0 / r - 1.0
        expected = r * np.linalg.inv(sigma + c * np.outer(tau, tau)) @ tau
        np.testing.assert_allclose(target.beta_star, expected, rtol=1e-8)
        # proportional to the precision-weighted effect direction
        direction = np.linalg.solve(sigma, tau)
        cosine = target.beta_star @ direction / (
            np.linalg.norm(target.beta_star) * np.linalg.norm(direction)
        )
        assert cosine > 1.0 - 1e-10


def test_population_beta_star_support_respects_sparsity():
    """Diagonal sigma_z keeps the support of tau exactly."""
    tau = np.array([0.0, 2.0, 0.0, -1.0])
    target = population_beta_star(tau, np.diag([1.0, 2.0, 3.0, 4.0]), 0.3)
    assert target.support == (1, 3)
    assert target.s_star == 2
    assert target.beta_star[0] == 0.0 and target.beta_star[2] == 0.0


def test_population_beta_star_validation():
    with pytest.raises(DataError, match="symmetric"):
        population_beta_star([1.0, 0.0], [[1.0, 0.5], [0.1, 1.0]], 0.5)
    with pytest.raises(NumericalError, match="positive definite"):
        population_beta_star([1.0, 0.0], [[1.0, 0.0], [0.0, -1.0]], 0.5)
    with pytest.raises(DataError, match="pi"):
        population_beta_star([1.0], [[1.0]], 1.0)
    with pytest.raises(DataError, match="shape"):
        population_beta_star([1.0, 2.0], np.eye(3), 0.5)


def test_multi_resolution_selection_prefers_matching_granularity():
    """An effect confined to one base column favors the fine grouping; an
    effect spread evenly favors the coarse one."""
    rng = np.random.default_rng(31)
    n = 600
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    y = rng.standard_normal((n, 4))
    y[:, 2] += 1.2 * t
    ds = TrialDataset(t, y)
    coarse = [(0, 1, 2, 3)]
    fine = [(0,), (1,), (2,), (3,)]
    (sel,), level = run_selection(ds, SelectionSpec(size=1, levels=[coarse, fine]))
    assert level == 1
    assert sel.selected == (2,)

    y2 = rng.standard_normal((n, 4)) + 0.8 * t[:, None]
    ds2 = TrialDataset(t, y2)
    (sel2,), level2 = run_selection(ds2, SelectionSpec(size=1, levels=[coarse, fine]))
    assert level2 == 0
    assert sel2.selected == (0,)


def test_multi_resolution_ties_go_to_the_earliest():
    ds = planted_dataset(7, p=4)
    fine = [(0,), (1,), (2,), (3,)]
    _, level = run_selection(ds, SelectionSpec(size=2, levels=[fine, fine]))
    assert level == 0
    _, level = run_selection(ds, SelectionSpec(lam=0.05, levels=[fine, fine]))
    assert level == 0
    with pytest.raises(DataError, match="at least one grouping"):
        run_selection(ds, SelectionSpec(size=1, levels=[]))


def test_selection_result_validation():
    with pytest.raises(DataError, match="unknown selection method"):
        SelectionResult((0,), "ridge", 1.0, (0.5,))
    with pytest.raises(DataError, match="equal length"):
        SelectionResult((0, 1), "lasso", 1.0, (0.5,))
    with pytest.raises(DataError, match="duplicate"):
        SelectionResult((0, 0), "lasso", 1.0, (0.5, 0.5))


def test_baseline_and_sparse_agree_on_strong_signal():
    """With well-separated effects and plenty of data, the studentized
    ranking and the path order coincide."""
    ds = planted_dataset(15, n=500, effects=(2.0, 1.2, 0.7))
    base = baseline_select(adjusted_estimate(ds, "dim"), 3)
    sparse = select(ds, size=3)
    assert base.selected == sparse.selected == (0, 1, 2)


def test_a_baseline_selection_rejects_penalty_options():
    assert method_l1_ratio("baseline") == 1.0
    with pytest.raises(DataError, match="baseline selection takes no penalty"):
        method_l1_ratio("baseline", 0.5)
    with pytest.raises(DataError, match="baseline selection takes no penalty, got lam"):
        SelectionSpec("baseline", size=2, lam=0.3)
    with pytest.raises(DataError, match="baseline selection takes no penalty, got l1_ratio"):
        SelectionSpec("baseline", size=2, config=EnetConfig(l1_ratio=0.3))


def test_method_l1_ratio_defaults_and_contradictions():
    assert method_l1_ratio("lasso") == 1.0
    assert method_l1_ratio("enet") == 0.5
    assert method_l1_ratio("lasso", 1.0) == 1.0
    assert method_l1_ratio("enet", 0.3) == 0.3
    with pytest.raises(DataError, match="contradicts"):
        method_l1_ratio("lasso", 0.3)
    with pytest.raises(DataError, match="contradicts"):
        method_l1_ratio("enet", 1.0)


def test_run_selection_dispatches_to_each_selector():
    ds = planted_dataset(21, n=300, p=10)
    rng = np.random.default_rng(21)
    with_cov = TrialDataset(ds.treatments, ds.outcomes, rng.standard_normal((ds.n, 2)))
    # baseline: ranked with the estimator when covariates exist, else unadjusted
    (base,), level = run_selection(with_cov, SelectionSpec("baseline", size=3), "lin")
    assert level is None
    assert base == baseline_select(adjusted_estimate(with_cov, "lin"), 3)
    (plain,), _ = run_selection(ds, SelectionSpec("baseline", size=3), "lin")
    assert plain == baseline_select(adjusted_estimate(ds, "dim"), 3)
    # several sizes from one ranking or one path walk
    ranked, _ = run_selection(ds, SelectionSpec("baseline", size=4), "dim", (2, 4))
    assert ranked == (baseline_select(adjusted_estimate(ds, "dim"), 2),
                      baseline_select(adjusted_estimate(ds, "dim"), 4))
    walked, level = run_selection(ds, SelectionSpec("enet", size=4), sizes=(1, 4))
    assert level is None
    assert walked == (select(ds, method="enet", size=1), select(ds, method="enet", size=4))
    assert walked[1].method == "enet"
    # penalized: the dataset's problem, or each level's, the best-fitting one chosen
    (fixed,), level = run_selection(ds, SelectionSpec("lasso", lam=0.15))
    assert level is None and fixed.method == "lasso"
    levels = [[tuple(range(10))], [(j,) for j in range(10)]]
    (chosen,), level = run_selection(ds, SelectionSpec(size=1, levels=levels))
    (coarse,), _ = run_selection(ds, SelectionSpec(size=1, levels=levels[:1]))
    assert level == 1 and chosen.weighted_rss < coarse.weighted_rss
    assert chosen.selected == select(aggregate_columns(ds, levels[1]), size=1).selected
    with pytest.raises(DataError, match="several sizes"):
        run_selection(ds, SelectionSpec(lam=0.15), sizes=(1, 2))


def test_select_at_large_p_never_forms_a_p_by_p_matrix():
    """Penalized selection reads only the Gram columns its path activates:
    at p = 20,000 its traced peak stays under a tenth of one p x p matrix
    (3.2 GB)."""
    p, n = 20_000, 40
    rng = np.random.default_rng(0)
    t = np.array([1, 0] * (n // 2))
    y = rng.standard_normal((n, p))
    y[:, :3] += 1.5 * t[:, None]
    ds = TrialDataset(t, y)
    result, peak = traced_peak(lambda: select(ds, size=5))
    assert len(result.selected) == 5
    assert peak < p * p * 8 / 10


@pytest.mark.parametrize("spec", [SelectionSpec(size=5), SelectionSpec(lam=0.3)],
                         ids=["size", "lam"])
def test_a_full_sample_selection_holds_one_weighted_matrix(spec):
    """A selection on the whole dataset concentrates its covariates out in
    place of its weighted columns and reads a subset's columns again from
    the dataset: it peaks under 1.2 outcome matrices (1.07 and 1.12), where
    the weighted columns and their residuals, held at once, took 2.09 and
    2.13."""
    n, p, m = 400, 2000, 10
    rng = np.random.default_rng(1)
    t = rng.permutation(np.tile([0, 1], n // 2))
    y = rng.standard_normal((n, p))
    y[:, :3] += t[:, None]
    ds = TrialDataset(t, y, rng.standard_normal((n, m)))
    (result,), peak = traced_peak(lambda: run_selection(ds, spec)[0])
    assert len(result.selected) >= 1
    assert peak < 1.2 * n * p * 8


_HALF_LEVELS = (tuple((j, j + 1, j + 2) for j in range(0, 12, 3)),
                tuple((j, j + 1) for j in range(0, 12, 2)))


@pytest.mark.parametrize("covariates", [False, True])
@pytest.mark.parametrize("spec", [
    SelectionSpec("lasso", size=3), SelectionSpec("enet", size=3),
    SelectionSpec("lasso", lam=0.3), SelectionSpec("enet", lam=0.3),
    SelectionSpec("lasso", size=2, levels=_HALF_LEVELS),
    SelectionSpec("enet", lam=0.3, levels=_HALF_LEVELS),
    SelectionSpec("baseline", size=3),
], ids=lambda spec: f"{spec.method}-{'size' if spec.size else 'lam'}"
                    f"{'-levels' if spec.levels else ''}")
def test_a_selection_on_rows_is_that_on_the_taken_rows(spec, covariates):
    """``run_selection(ds, spec, rows=r)`` gathers the rows into its weighted
    columns and gives ``run_selection(ds.take_rows(r), spec)`` bit for bit,
    errors included, at several sizes too."""
    rng = np.random.default_rng(4)
    n, p = 120, 12
    t = rng.permutation(np.tile([0, 1], n // 2))
    y = rng.standard_normal((n, p)) + np.outer(t, [1.2, 0.8, 0.5] + [0.0] * (p - 3))
    x = rng.standard_normal((n, p)) + 0.5 * y if covariates else None
    ds = TrialDataset(t, y, x)
    for seed in range(3):
        rows = np.sort(rng.choice(n, size=60 + 7 * seed, replace=False))
        for estimator in ("dim", "cuped") if covariates else ("dim",):
            got = _outcome(lambda: run_selection(ds, spec, estimator, rows=rows))
            assert got == _outcome(lambda: run_selection(ds.take_rows(rows), spec, estimator))
        if spec.size and not spec.levels:
            got = _outcome(lambda: run_selection(ds, spec, sizes=[1, 3, 4], rows=rows))
            assert got == _outcome(lambda: run_selection(ds.take_rows(rows), spec, sizes=[1, 3, 4]))


def test_a_selection_on_rows_checks_them():
    ds = planted_dataset(0, n=20)
    for rows, match in (([0, 20], "out of range"), ([3], "n >= 2"), ([[0, 1]], "1-d")):
        for spec in (SelectionSpec(size=1), SelectionSpec("baseline", size=1),
                     SelectionSpec(size=1, levels=[[[0, 1], [2, 3]]])):
            with pytest.raises(DataError, match=match):
                run_selection(ds, spec, rows=rows)


def test_row_sets_selected_together_are_each_row_sets_selection():
    """A lasso's size selections on a 2-d array of row sets (stacked, one
    knot walk per level) are, per row set, the selection on that row set
    alone: the same columns and level, and the grid penalty and weighted
    RSS to rounding, as their moments come from the stacked factors. A row
    set whose selection raises (here one with a single arm) holds its
    error. No other selection takes row sets."""
    ds = planted_dataset(2, n=120, p=12)
    levels = [[tuple(range(k, k + 4)) for k in range(0, 12, 4)], [(k,) for k in range(12)]]
    rng = np.random.default_rng(5)
    rows = np.sort([rng.choice(ds.n, 60, replace=False) for _ in range(6)], axis=1)
    rows[3] = np.flatnonzero(ds.treatments)
    for spec in (SelectionSpec(size=2), SelectionSpec(size=2, levels=levels)):
        picks = run_selection(ds, spec, rows=rows)
        with pytest.raises(DataError, match="both arms") as single:
            run_selection(ds, spec, rows=rows[3])
        assert len(picks) == 6 and str(picks[3]) == str(single.value)
        for b in (0, 1, 2, 4, 5):
            ((got,), level), ((want,), want_level) = picks[b], run_selection(ds, spec, rows=rows[b])
            assert (got.selected, level) == (want.selected, want_level)
            assert got.tuning == pytest.approx(want.tuning, rel=1e-12)
            assert got.weighted_rss == pytest.approx(want.weighted_rss, rel=1e-9)
    with pytest.raises(DataError, match="by a lasso's size only"):
        run_selection(ds, SelectionSpec("enet", size=2), rows=rows)


def reference_level_selections(ds, levels, **spec):
    """Each level selected the way multi-resolution selection used to: the
    aggregated dataset, then the selection ``spec`` describes on it."""
    return [select(aggregate_columns(ds, grouping), **spec) for grouping in levels]


def _outcome(call):
    """A call's result, or its error class and message with floats masked,
    signs included (a penalty in a message may differ in its last digits, and
    a singular subset's eigenvalue ratio is rounding of either sign)."""
    try:
        return call()
    except HdteError as exc:
        return type(exc), re.sub(r"-?\d+\.\d+(e[-+]?\d+)?", "#", str(exc))


@st.composite
def level_cases(draw):
    """A planted dataset over ``p`` base columns (with covariates of the same
    layout or none), one to three groupings of distinct nonempty groups, and
    a size- or penalty-based lasso or elastic-net spec."""
    p = draw(st.integers(2, 7))
    n = 2 * draw(st.integers(20, 45))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    y = rng.standard_normal((n, p))
    y[:, : 1 + p // 3] += draw(st.floats(0.2, 1.2)) * t[:, None]
    x = None
    if draw(st.booleans()):
        x = rng.standard_normal((n, p))
        y += 0.6 * x
    group = st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)
    grouping = st.lists(group, min_size=1, max_size=p, unique_by=frozenset)
    levels = draw(st.lists(grouping, min_size=1, max_size=3))
    method = draw(st.sampled_from(["lasso", "enet"]))
    if draw(st.booleans()):
        tuning = {"size": draw(st.integers(1, min(3, *(len(g) for g in levels))))}
    else:
        tuning = {"lam": draw(st.floats(0.005, 0.3))}
    return TrialDataset(t, y, x), levels, dict(tuning, method=method)


@settings(max_examples=150)
@given(case=level_cases())
def test_resolution_levels_match_selection_on_aggregated_datasets(case):
    """Selecting among levels from one factorization per dataset makes the
    choice the per-level aggregated route makes: the same level and subset
    (or the same error), tuning within 1e-9 relative, scores and weighted
    RSS within 1e-8. Where levels tie within rounding either may win: the
    chosen level's reference RSS is the smallest and no earlier level's is
    smaller, both up to 1e-9 relative."""
    ds, levels, spec = case
    got = _outcome(lambda: run_selection(ds, SelectionSpec(levels=levels, **spec)))
    want = _outcome(lambda: reference_level_selections(ds, levels, **spec))
    if not isinstance(want, list):
        assert got == want
        return
    (sel,), level = got
    rss = np.array([ref.weighted_rss for ref in want])
    tol = 1e-9 * rss.min()
    assert rss[level] <= rss.min() + tol
    assert np.all(rss[:level] >= rss[level] - tol)
    ref = want[level]
    assert (sel.selected, sel.method) == (ref.selected, ref.method)
    assert sel.tuning == pytest.approx(ref.tuning, rel=1e-9)
    np.testing.assert_allclose(sel.scores, ref.scores, rtol=0, atol=1e-8)
    assert sel.weighted_rss == pytest.approx(ref.weighted_rss, rel=0, abs=1e-8)


@st.composite
def permutation_cases(draw):
    """A planted dataset (with or without covariates), a permutation of its
    outcome columns, and a lasso or elastic-net spec."""
    p = draw(st.integers(2, 12))
    n = 2 * draw(st.integers(20, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    y = rng.standard_normal((n, p))
    y[:, : 1 + p // 3] += draw(st.floats(0.2, 1.2)) * t[:, None]
    x = rng.standard_normal((n, 2)) if draw(st.booleans()) else None
    perm = np.array(draw(st.permutations(range(p))))
    # a tight tol keeps the solver's own error far below the comparison's
    spec = SelectionSpec(draw(st.sampled_from(["lasso", "enet"])), size=1,
                         config=EnetConfig(tol=1e-10))
    return TrialDataset(t, y, x), perm, spec


@settings(max_examples=60, deadline=None)
@given(case=permutation_cases(), data=st.data())
def test_penalized_selection_is_invariant_under_a_column_permutation(case, data):
    """Lasso and elastic-net selection at a fixed size picks the same columns,
    mapped back, with the same penalty and scores, after the outcome columns
    are permuted. Sizes are those the path reaches at one grid point without
    passing them, so no same-point tie is broken by column index."""
    ds, perm, spec = case
    walk = WeightedProblem.from_dataset(ds).walk_path(config=spec.config)
    counts = [np.count_nonzero(beta) for _, beta, _, _ in walk]
    clean = [s for s in range(1, ds.p + 1)
             if any(c >= s for c in counts) and next(c for c in counts if c >= s) == s]
    assume(clean)
    size = data.draw(st.sampled_from(clean))
    spec = SelectionSpec(spec.method, size=size, config=spec.config)
    (want,), _ = run_selection(ds, spec)
    shuffled = TrialDataset(ds.treatments, ds.outcomes[:, perm], ds.covariates)
    (got,), _ = run_selection(shuffled, spec)
    assert sorted(perm[list(got.selected)]) == sorted(want.selected)
    assert got.tuning == pytest.approx(want.tuning, rel=1e-12)
    mapped = dict(zip(perm[list(got.selected)], got.scores))
    np.testing.assert_allclose([mapped[j] for j in want.selected], want.scores,
                               rtol=0, atol=1e-8)
    assert got.weighted_rss == pytest.approx(want.weighted_rss, rel=1e-9)


@st.composite
def knot_cases(draw):
    """A planted design with one constant and one duplicated outcome column,
    ``p`` below or above ``n``, with or without covariates; the duplicated
    pair is returned lower index first."""
    n = 2 * draw(st.integers(12, 40))
    p = draw(st.integers(5, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    y = rng.standard_normal((n, p))
    y[:, : draw(st.integers(1, 5))] += draw(st.floats(0.2, 1.5)) * t[:, None]
    x = None
    if draw(st.booleans()):
        x = rng.standard_normal((n, draw(st.integers(1, 3))))
        y += x @ rng.standard_normal((x.shape[1], p)) * 0.5
    constant, copy, source = rng.choice(p, 3, replace=False).tolist()
    y[:, constant] = 0.37
    y[:, copy] = y[:, source]
    return TrialDataset(t, y, x), sorted((source, copy))


def coordinate_descent_walk(ds):
    """The points of a coordinate-descent walk down the default lasso grid of
    ``ds``, as ``hdte path`` walks it; ``walk_path`` reads the knots."""
    moments, config = WeightedProblem.from_dataset(ds).prepare()[0], EnetConfig()
    grid = wlasso._path_grid(moments, config, 100, wlasso._min_ratio(ds.n, ds.p, 100, None))
    return wlasso._walk_path(moments, grid, config)


def walked_selections(ds, sizes, twins=None):
    """Size selections as a converged walk down the lasso grid makes them,
    with the two ``twins`` copies of a duplicated column (if any) read as the
    lower one. From the first grid point where both copies are nonzero the
    walk's split between them is rounding, so sizes not yet resolved there
    are left out; ``exhausted`` is whether the grid ran out first."""
    entry, picks, pending = {}, {}, sorted(sizes)
    for lam, beta, _, converged in coordinate_descent_walk(ds):
        assert converged
        if twins is not None:
            low, high = twins
            if beta[low] and beta[high]:
                return picks, False
            beta[low] += beta[high]
            beta[high] = 0.0
        active = np.flatnonzero(beta).tolist()
        for j in active:
            entry.setdefault(j, len(entry))
        while pending and len(active) >= pending[0]:
            ranked = sorted(active, key=entry.__getitem__)[:pending.pop(0)]
            picks[len(ranked)] = (tuple(ranked), lam, [abs(beta[j]) for j in ranked],
                                  WeightedProblem.from_dataset(ds).subset_weighted_rss(ranked))
        if not pending:
            break
    return picks, bool(pending)


def assert_knots_select_as_the_walk(ds, top, twins=None):
    """The lasso knots' selections at sizes 1 to ``top`` are the walk's
    (columns, grid penalty and weighted RSS equal, scores within the walk's
    tolerance), and each grid point the knots report, up to the first with
    ``top`` active columns, is stationary to 1e-10; returns those points'
    active sets."""
    picks, exhausted = walked_selections(ds, range(1, top + 1), twins)
    if exhausted:
        with pytest.raises(DataError, match="cannot select"):
            size_selections(ds, range(1, top + 1))
    if picks:
        got = size_selections(ds, picks)
        for s, (selected, lam, scores, rss) in picks.items():
            assert (got[s].selected, got[s].tuning, got[s].weighted_rss) == (selected, lam, rss)
            np.testing.assert_allclose(got[s].scores, scores, rtol=0, atol=1e-6)
    problem = WeightedProblem.from_dataset(ds)
    moments = problem.prepare()[0]
    gram, actives = moments.gram.rows(np.arange(ds.p)), []
    for lam, beta, _, _ in problem.walk_path():
        violation = _kkt_violation(beta, beta @ gram, moments.ty, lam, 0.0, moments.penalized)
        assert violation <= 1e-10
        actives.append(set(np.flatnonzero(beta).tolist()))
        if len(actives[-1]) >= top:
            break
    return actives


@settings(max_examples=80, deadline=None)
@given(case=knot_cases())
def test_lasso_knots_select_what_the_walk_selects(case):
    """A lasso size selection read off the path's knots picks the columns,
    grid penalty and weighted RSS of a converged walk down the same grid at
    sizes 1 to min(10, n // 3), with scores within the walk's tolerance; the
    duplicated column never enters beside its copy, and every grid point the
    route reports is stationary to 1e-10."""
    ds, twins = case
    actives = assert_knots_select_as_the_walk(ds, min(10, ds.n // 3, ds.p - 2), twins)
    assert not any(set(twins) <= active for active in actives)


def test_a_coefficient_that_leaves_the_lasso_path_stays_out_on_its_side():
    """On correlated outcomes a coefficient reaches zero and leaves the path
    (here a selection of 4 columns shrinks to 3); it is not taken back on its
    own side at that knot, so the path stays stationary and selects what the
    walk selects."""
    rng = np.random.default_rng(360)
    t = np.array([1, 0] * 20)
    rng.shuffle(t)
    y = rng.standard_normal((40, 30))
    y[:, :3] += 0.8 * t[:, None]
    y[:, 3:6] += 0.7 * y[:, :3]
    actives = assert_knots_select_as_the_walk(TrialDataset(t, y), 12)
    assert any(before - after for before, after in zip(actives, actives[1:]))


@pytest.mark.parametrize("replicate, reached", [(0, 131), (2, 130)])
def test_a_knot_walk_stops_where_a_failed_pivot_leaves_the_path(replicate, reached):
    """Near the rank of criterion 6's concentrated rows (200 x 500, 50
    covariates) a column fails the pivot test without copying an active
    one; once its gap passes the penalty the walk raises, naming the active
    columns it holds, and every point it yielded is stationary. A selection
    one past the largest active set the walk reached raises that error."""
    from hdte.simharness import LinearModelConfig, LinearModelGenerator
    gen = LinearModelGenerator(LinearModelConfig(200, 500, 50, 5, 0.4, 0.3, 0))
    ds, _ = gen.replicate(replicate)
    problem = WeightedProblem.from_dataset(ds)
    moments = problem.prepare()[0]
    gram, counts = moments.gram.rows(np.arange(ds.p)), []
    with pytest.raises(NumericalError, match=r"^lasso path lost at 130 active columns: "):
        for lam, beta, _, _ in problem.walk_path():
            violation = _kkt_violation(beta, beta @ gram, moments.ty, lam, 0.0,
                                       moments.penalized)
            assert violation <= 1e-10
            counts.append(np.count_nonzero(beta))
    assert max(counts) == reached
    with pytest.raises(NumericalError, match=r"^lasso path lost at 130 active columns: "):
        run_selection(ds, SelectionSpec(size=reached + 1), "cuped")


def test_a_copy_kept_out_to_the_grids_end_leaves_the_walk_on_the_path():
    """A copy of an active column fails the pivot test and its gap stays at
    the penalty, so a walk that holds it out down to the bottom of the grid
    reports every point and then runs out of the grid, as when nothing is
    kept out."""
    rng = np.random.default_rng(8)
    t = rng.permutation(np.tile([0, 1], 49))
    y = rng.standard_normal((98, 4))
    y[:, 0] += 0.9 * t
    y[:, 3] = y[:, 2]
    ds = TrialDataset(t, y, rng.standard_normal((98, 1)))
    points = list(WeightedProblem.from_dataset(ds).walk_path())
    assert points and max(np.count_nonzero(beta) for _, beta, _, _ in points) == 3
    with pytest.raises(DataError, match="at most 3 active columns; cannot select 4"):
        run_selection(ds, SelectionSpec(size=4))


def test_a_lasso_size_selection_runs_no_coordinate_descent(monkeypatch):
    """A dataset's and a resolution level's lasso size selections read the
    path's knots and make no coordinate-descent solve; the elastic net still
    walks its grid."""
    calls = []
    solve = wlasso._cd_solve
    monkeypatch.setattr(wlasso, "_cd_solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    ds = planted_dataset(3, p=10)
    select(ds, size=3)
    size_selections(ds, [1, 2, 4])
    run_selection(ds, SelectionSpec(size=2, levels=[[tuple(range(5)), tuple(range(5, 10))],
                                                    [(j,) for j in range(10)]]))
    assert calls == []
    size_selections(ds, [2], "enet")
    assert calls
