"""Split-sample inference: selection on one half, testing on the other,
and quantile aggregation over repeated random splits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .data import (TrialDataset, aggregate_columns, check_grouping, solve_nonsingular,
                   split_indices)
from .errors import DataError, HdteError, NumericalError
from .estimators import EffectEstimate, adjusted_estimate, check_estimator
from .selection import SelectionSpec, check_sizes, run_selection

__all__ = [
    "PValueReport",
    "MultiSplitReport",
    "SelectionSpec",
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

    ``per_dim`` maps outcome column index to its multiplicity-corrected
    p-value; ``correction_factor`` is the multiplicity used (the subset
    size). ``estimate`` is the second-half effect estimate the p-values came
    from (``None`` when the subset is empty).
    """

    per_dim: dict[int, float]
    group: float
    estimate: EffectEstimate | None
    subset: tuple[int, ...]
    correction_factor: int


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


def _split_report(first: TrialDataset, take_second, method: str, sel: SelectionSpec,
                  two_sided: bool) -> tuple[PValueReport, int | None]:
    """Select on ``first``; then test the subset on the half ``take_second()``
    returns, built only once the selection has released its working set."""
    (result,), level = run_selection(first, sel, method)
    subset = result.selected
    if not subset:
        return PValueReport({}, 1.0, None, (), 0), level
    second = take_second()
    if level is not None:
        second = aggregate_columns(second, sel.levels[level])
    est = adjusted_estimate(second, method, subset)
    pvals = z_pvalues(est, correction=len(subset), two_sided=two_sided)
    per_dim = {int(j): float(p) for j, p in zip(subset, pvals)}
    return PValueReport(per_dim, hotelling_pvalue(est), est, subset, len(subset)), level


def single_split_pipeline(split, method: str, sel: SelectionSpec,
                          two_sided: bool = False) -> PValueReport:
    """Select on ``split.first``, then test the selected subset on
    ``split.second``.

    ``method`` names the second-half estimator (``"dim"``, ``"cuped"``,
    ``"lin"``). Per-dimension p-values carry a multiplicity correction equal
    to the subset size; the group p-value comes from the quadratic-form
    statistic. An empty selection yields a report with group p-value 1 and no
    per-dimension entries.
    """
    check_estimator(split.second, method)
    return _split_report(split.first, lambda: split.second, method, sel, two_sided)[0]


def aggregate_pvalues(p_matrix, gamma: float) -> np.ndarray:
    """Rescaled empirical-quantile aggregation across splits.

    For each column of the ``(B, k)`` matrix, divide by ``gamma``, take the
    ``ceil(gamma * B)``-th order statistic (1-based), and cap at 1. With
    ``B = 1`` this is ``min(1, p / gamma)``.
    """
    pm = np.asarray(p_matrix, dtype=np.float64)
    if pm.ndim != 2:
        raise DataError(f"p_matrix must be 2-d (B, k), got shape {pm.shape}")
    if not 0.0 < gamma < 1.0:
        raise DataError(f"gamma must be in (0, 1), got {gamma}")
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
    return np.random.SeedSequence(seed).generate_state(count, dtype=np.uint32)


def _slot_layout(sel: SelectionSpec, p: int) -> tuple[int, tuple[int, ...]]:
    """Total per-dimension slots and per-level offsets for aggregation."""
    if sel.levels is None:
        return p, (0,)
    sizes = [len(lvl) for lvl in sel.levels]
    offsets = tuple(int(v) for v in np.concatenate([[0], np.cumsum(sizes)[:-1]]))
    return int(sum(sizes)), offsets


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
    data error, not a failure of split 0: an unknown ``method`` or one
    without covariates to adjust on, resolution levels that do not fit
    ``ds`` (see :func:`hdte.data.check_grouping`) or a size beyond the
    columns (each level's groups) it selects from, all checked before the
    first split, and a ``fraction`` that leaves a part under 2 rows.

    Split ``b`` is :func:`single_split_pipeline` on ``random_split(ds,
    fraction, split_seeds(seed, B)[b])``, bit for bit, except that the test
    half is taken only after the selection has returned, so it is never held
    next to the selection's working set.
    """
    if B < 1:
        raise DataError(f"B must be >= 1, got {B}")
    check_estimator(ds, method)
    for grouping in sel.levels or ():
        check_grouping(ds, grouping)
    if sel.size is not None:
        check_sizes([sel.size], min(map(len, sel.levels)) if sel.levels else ds.p)
    n_slots, offsets = _slot_layout(sel, ds.p)
    seeds = split_seeds(seed, B)
    per_dim = np.ones((B, n_slots))
    group = np.ones((B, 1))
    subsets = []
    for b in range(B):
        # random_split's rows, which fail alike for every seed
        first, second = split_indices(ds.n, fraction, int(seeds[b]))
        try:
            report, level = _split_report(ds.take_rows(first), lambda: ds.take_rows(second),
                                          method, sel, two_sided)
        except HdteError as exc:
            raise NumericalError(f"split {b} failed: {exc}") from exc
        if sel.levels is not None and report.subset:
            slots = tuple(offsets[level] + j for j in report.subset)
        else:
            slots = report.subset
        for slot, j in zip(slots, report.subset):
            per_dim[b, slot] = report.per_dim[j]
        group[b, 0] = report.group
        subsets.append(slots)
    agg = aggregate_pvalues(per_dim, gamma)
    agg.setflags(write=False)
    group_agg = float(aggregate_pvalues(group, gamma)[0])
    return MultiSplitReport(agg, group_agg, gamma, B, tuple(subsets))
