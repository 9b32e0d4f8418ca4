"""Split-sample inference: selection on one half, testing on the other,
and quantile aggregation over repeated random splits."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import chdtrc, ndtr

from .data import (TrialDataset, aggregate_columns, check_grouping, check_seed,
                   solve_nonsingular, split_indices)
from .errors import DataError, HdteError, NumericalError
from .estimators import EffectEstimate, adjusted_estimate, check_estimator
from .forking import run_shared, share_count
from .selection import SelectionSpec, check_sizes, run_selection

__all__ = [
    "PValueReport",
    "MultiSplitReport",
    "z_pvalues",
    "hotelling_statistic",
    "hotelling_pvalue",
    "single_split_pipeline",
    "aggregate_pvalues",
    "multi_split",
    "split_seeds",
]


@dataclass(frozen=True)
class PValueReport:
    """Per-dimension and group p-values for one tested subset.

    ``per_dim`` maps outcome column index to its p-value, corrected for
    the multiplicity ``len(subset)``. ``estimate`` is the second-half effect
    estimate the p-values came from (``None`` when the subset is empty).
    """

    per_dim: dict[int, float]
    group: float
    estimate: EffectEstimate | None
    subset: tuple[int, ...]


@dataclass(frozen=True)
class MultiSplitReport:
    """Aggregated p-values over ``B`` random splits.

    ``per_dim_aggregated[j]`` covers outcome column ``j``; in
    multi-resolution mode the vector is indexed by (level, window) slots,
    levels concatenated in order. ``per_split_subsets`` records each split's
    selected subset in those same indices.
    """

    per_dim_aggregated: np.ndarray
    group_aggregated: float
    gamma: float
    B: int
    per_split_subsets: tuple[tuple[int, ...], ...]


def z_pvalues(est: EffectEstimate, correction: int, two_sided: bool = False) -> np.ndarray:
    """Per-dimension normal-tail p-values ``min(1, correction * tail)``.

    The z-score is ``sqrt(n) * |tau_j| / sqrt(sigma_jj)``. The default tail
    is the single upper tail ``ndtr(-|z|)`` (as in ``scipy.stats.norm.sf``);
    ``two_sided=True`` doubles it, which is the calibrated choice under a
    two-sided alternative.
    """
    if correction < 1:
        raise DataError(f"correction must be >= 1, got {correction}")
    diag = np.diag(est.sigma_hat)
    if np.any(diag <= 0):
        raise NumericalError("zero variance entry; z-score undefined")
    z = np.sqrt(est.n) * np.abs(est.tau_hat) / np.sqrt(diag)
    tail = ndtr(-z)
    if two_sided:
        tail = 2.0 * tail
    return np.minimum(1.0, correction * tail)


def hotelling_statistic(est: EffectEstimate) -> float:
    """Quadratic-form statistic ``n * tau' sigma^{-1} tau``."""
    if not est.index_set:
        return 0.0
    return float(est.n * est.tau_hat @ solve_nonsingular(
        est.sigma_hat, est.tau_hat, "covariance", est.index_set))


def hotelling_pvalue(est: EffectEstimate) -> float:
    """Group-level p-value from the chi-squared reference with ``|subset|``
    degrees of freedom, ``chdtrc`` as in ``scipy.stats.chi2.sf``. An empty
    subset returns 1."""
    s = len(est.index_set)
    if s == 0:
        return 1.0
    return float(chdtrc(s, hotelling_statistic(est)))


def _split_reports(ds: TrialDataset, halves: list, method: str, sel: SelectionSpec,
                   two_sided: bool):
    """Per split ``(selection rows, test rows)`` of ``halves``, in order: its
    report and level, to the first split that raises. The first halves are
    selected on together where the splits are stacked (:func:`_stacked`,
    ``run_selection`` on a 2-d array of row sets), else one at a time, each
    gathered into the selection's weighted columns; then each subset is
    tested on its test half, taken only then. A level-free test takes only
    the subset's columns of those rows, which gives the same estimate, as
    slopes are fitted per column."""
    firsts = [first for first, _ in halves]
    picks = (run_selection(ds, sel, method, rows=np.array(firsts)) if _stacked(ds, sel)
             else (run_selection(ds, sel, method, rows=first) for first in firsts))
    for (_, test), pick in zip(halves, picks):
        if isinstance(pick, HdteError):
            raise pick
        (result,), level = pick
        subset = result.selected
        if not subset:
            yield PValueReport({}, 1.0, None, ()), level
            continue
        if level is None:
            second = ds.restrict_outcomes(subset).take_rows(test)
            est = replace(adjusted_estimate(second, method), index_set=subset)
        else:
            second = aggregate_columns(ds.take_rows(test), sel.levels[level])
            est = adjusted_estimate(second, method, subset)
        pvals = z_pvalues(est, correction=len(subset), two_sided=two_sided)
        per_dim = {int(j): float(p) for j, p in zip(subset, pvals)}
        yield PValueReport(per_dim, hotelling_pvalue(est), est, subset), level


def single_split_pipeline(ds: TrialDataset, method: str, sel: SelectionSpec, seed: int,
                          fraction: float = 0.5, two_sided: bool = False) -> PValueReport:
    """Split the rows of ``ds`` by :func:`hdte.data.split_indices` at
    ``fraction`` and ``seed``, select on the first part, then test the
    selected subset on the second.

    ``method`` names the second-half estimator (``"dim"``, ``"cuped"``,
    ``"lin"``). Per-dimension p-values carry a multiplicity correction equal
    to the subset size; the group p-value comes from the quadratic-form
    statistic. An empty selection yields a report with group p-value 1 and no
    per-dimension entries.
    """
    check_estimator(ds, method)
    halves = [split_indices(ds.n, fraction, seed)]
    return next(_split_reports(ds, halves, method, sel, two_sided))[0]


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise DataError(f"gamma must be in (0, 1), got {gamma}")


def aggregate_pvalues(p_matrix, gamma: float) -> np.ndarray:
    """Rescaled empirical-quantile aggregation across splits.

    For each column of the ``(B, k)`` matrix, divide by ``gamma``, take the
    ``ceil(gamma * B)``-th order statistic (1-based), and cap at 1. With
    ``B = 1`` this is ``min(1, p / gamma)``.
    """
    pm = np.asarray(p_matrix, dtype=np.float64)
    if pm.ndim != 2:
        raise DataError(f"p_matrix must be 2-d (B, k), got shape {pm.shape}")
    _check_gamma(gamma)
    if pm.size and (np.any(pm < 0) or np.any(pm > 1) or not np.all(np.isfinite(pm))):
        raise DataError("p-values must lie in [0, 1]")
    b = pm.shape[0]
    if b < 1:
        raise DataError("p_matrix needs at least one row")
    # Guard the ceil against float fuzz like 0.05 * 20 landing just above 1.
    order = max(1, math.ceil(gamma * b - 1e-9))
    scaled = np.sort(pm / gamma, axis=0)
    return np.minimum(1.0, scaled[order - 1])


def split_seeds(seed: int, count: int) -> np.ndarray:
    """Child seeds for repeated splits, deterministic in ``(seed, count)``."""
    check_seed(seed)
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)


def _slot_layout(sel: SelectionSpec, p: int) -> tuple[int, tuple[int, ...]]:
    """Total per-dimension slots and per-level offsets for aggregation."""
    if sel.levels is None:
        return p, (0,)
    sizes = [len(lvl) for lvl in sel.levels]
    offsets = tuple(int(v) for v in np.concatenate([[0], np.cumsum(sizes)[:-1]]))
    return int(sum(sizes)), offsets


# A multi-split that selects on one split at a time forks when it has at
# least this many splits: the crossover of the parent and one forked child
# against the parent alone, measured on a 2-vCPU Xeon with one BLAS thread
# (medians of 40 calls a side, 4 on the wide design). At B = 5, 8, 10, the
# splits of a cuped 500 x 4000 design with 10 covariates (about 19 ms each)
# took 105/161/191 ms serially against 100/125/154 ms forked. Each process
# pays about one split's worth of set-up: the fork and reap, and write
# faults on the pages the two share.
_FORK_MIN_SPLITS = 7

# A lasso's size selections on a dataset of at most this many weighted
# columns (m + p + 1) are made on all first halves at once, stacked, and
# never forked. Measured as above on four of criterion 9's replicates (B =
# 20, 49 columns with the covariates): 28-31 ms, against 53-60 ms a split at
# a time and 37-45 ms with those shared with a forked child; criterion 7's
# 50 splits (n = 400, p = 20) took 17 ms, against 32-39 and 22-27 ms. Sharing
# the stacked splits with a child took 26-27 ms, a gain of about what the
# write faults after a fork (about 1,000 of 3-5 us a process) cost the work
# that follows it. A stacked split holds O((m + p)^2) floats.
_STACK_COLUMNS = 64


def _stacked(ds: TrialDataset, sel: SelectionSpec) -> bool:
    """Whether a multi-split of ``sel`` on ``ds`` stacks its splits."""
    return sel.method == "lasso" and sel.lam is None and ds.m + ds.p + 1 <= _STACK_COLUMNS


def _split_outcomes(ds: TrialDataset, seeds, share: range, method: str, sel: SelectionSpec,
                    fraction: float, two_sided: bool) -> list:
    """What :func:`multi_split` reads of the splits ``share``, in order:
    ``(subset, p-values, group p-value, level)`` per split, the p-values
    those of the subset's columns. The :class:`HdteError` of a split that
    raises is its entry and ends the list."""
    # drawn before the first selection: a fraction that leaves a part too small fails every seed
    halves = [split_indices(ds.n, fraction, int(seeds[b])) for b in share]
    out = []
    try:
        for report, level in _split_reports(ds, halves, method, sel, two_sided):
            out.append((report.subset, [report.per_dim[j] for j in report.subset],
                        report.group, level))
    except HdteError as exc:
        out.append(exc)
    return out


def check_multi_split(B: int, gamma: float, method: str, sel: SelectionSpec,
                      ds: TrialDataset | None = None) -> None:
    """Raise the :class:`DataError` that :func:`multi_split` raises before its
    first split, in its order: ``B`` under 1, a ``gamma`` outside (0, 1), an
    unknown ``method`` or one without covariates to adjust on, resolution
    levels that do not fit ``ds`` (see :func:`hdte.data.check_grouping`) and
    a size beyond the columns (each level's groups) it selects from. With
    ``ds`` ``None`` the checks of its covariates, of the levels' fit and of
    a single level's columns are left out, so a driver that draws the data
    later checks the rest up front."""
    if B < 1:
        raise DataError(f"B must be >= 1, got {B}")
    _check_gamma(gamma)
    check_estimator(ds, method)
    if ds is not None:
        for grouping in sel.levels or ():
            check_grouping(ds, grouping)
    if sel.size is not None and (sel.levels or ds is not None):
        check_sizes([sel.size], min(map(len, sel.levels)) if sel.levels else ds.p)


def multi_split(ds: TrialDataset, B: int = 50, gamma: float = 0.05,
                method: str = "dim", sel: SelectionSpec = SelectionSpec(size=1),
                seed: int = 0, fraction: float = 0.5,
                two_sided: bool = False) -> MultiSplitReport:
    """Run the split pipeline over ``B`` random splits and aggregate.

    Per split, unselected dimensions get p-value 1. Aggregation uses the
    capped rescaled ``gamma``-quantile per dimension and for the group
    p-value. Split seeds derive deterministically from ``seed``, so reruns
    reproduce the report exactly. Any split failure aborts with the split
    index in the error message. A mistake that would fail every split is a
    data error, not a failure of split 0: those of
    :func:`check_multi_split`, checked before the first split, a negative
    ``seed`` and a ``fraction`` that leaves a part under 2 rows. Checking the
    levels plans them, so the splits (and forked children) read each level's
    plan rather than derive it again.

    Split ``b`` is ``single_split_pipeline(ds, method, sel, split_seeds(seed,
    B)[b], fraction, two_sided)``: both run one private function on their
    halves, drawn up front. A lasso's size selections on a dataset of at most
    ``_STACK_COLUMNS`` (64) weighted columns (``m + p + 1``) are made on all
    first halves at once: each is gathered and factored on its own, and
    their levels' (or their own) problems are stacked and selected on by one
    knot walk per level (``run_selection`` on a 2-d array of row sets).
    Otherwise a selection gathers one first half's rows straight into its
    weighted columns. A test half is taken only after its selection, without
    a level only the subset's columns of it, so no half of the outcome
    matrix is held as a dataset.

    Splits selected one at a time are shared, from ``_FORK_MIN_SPLITS`` (7)
    splits on, among the ``k`` processes :func:`hdte.forking.share_count`
    allows: one per CPU of the affinity set on Linux, in a process that runs
    one thread and is not already sharing (a replicate of a shared
    experiment is). Split
    ``b`` runs in share ``b mod k``, this process runs share 0 and one forked
    child each other share (:func:`hdte.forking.run_shared`). The report
    and the error are the serial ones bit for bit: the outcomes are
    aggregated here in split order. With BLAS threads unpinned, the BLAS
    pool's threads keep the splits serial.
    """
    check_multi_split(B, gamma, method, sel, ds)
    n_slots, offsets = _slot_layout(sel, ds.p)
    seeds = split_seeds(seed, B)
    outcomes = run_shared(B, share_count(B) if B >= _FORK_MIN_SPLITS and not _stacked(ds, sel)
                          else 1,
                          lambda share: _split_outcomes(ds, seeds, share, method, sel,
                                                        fraction, two_sided))
    per_dim = np.ones((B, n_slots))
    group = np.ones((B, 1))
    subsets = []
    # a share's list ends at its first failing split, so the outcomes reach
    # at least the first failing split, which raises here
    for b, outcome in enumerate(outcomes):
        if isinstance(outcome, HdteError):
            raise NumericalError(f"split {b} failed: {outcome}") from outcome
        subset, pvals, group_p, level = outcome
        group[b, 0] = group_p
        if sel.levels is not None and subset:
            subset = tuple(offsets[level] + j for j in subset)
        per_dim[b, list(subset)] = pvals
        subsets.append(subset)
    agg = aggregate_pvalues(per_dim, gamma)
    agg.setflags(write=False)
    group_agg = float(aggregate_pvalues(group, gamma)[0])
    return MultiSplitReport(agg, group_agg, gamma, B, tuple(subsets))
