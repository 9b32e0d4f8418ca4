"""Outcome subset selection: ranked effects, penalized paths, resolution
levels, the one dispatch between them, and the population-level target the
sparse selector estimates.

Every selection is made by :func:`run_selection`. A penalized one is made
on each :class:`hdte.wlasso.WeightedProblem` it builds, the dataset's or
each resolution level's: by size it goes down the penalty grid, a lasso's by
its knots, resolving each size at the first grid point whose active set
reaches it; by penalty it reads one fit. Resolution levels are solved from
one factorization of the split half (:func:`hdte.wlasso.level_problems`),
not from one aggregated dataset each. A lasso's size selections on several
row sets (a multi-split's first halves) are made together, on their
stacked problems."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import TrialDataset
from .errors import DataError, HdteError, NumericalError
from .estimators import EffectEstimate, adjusted_estimate
from .wlasso import EnetConfig, WeightedProblem, level_problems

__all__ = [
    "SelectionSpec",
    "SelectionResult",
    "PopulationTarget",
    "method_l1_ratio",
    "run_selection",
    "baseline_select",
    "population_beta_star",
]

_METHODS = ("baseline", "lasso", "enet")

# The population support holds the coefficients above this share of the
# largest coefficient magnitude.
_SUPPORT_TOL = 1e-10


def method_l1_ratio(method: str, l1_ratio: float | None = None) -> float:
    """The lasso share of the penalty that ``method`` runs with.

    ``None`` gives the method's default: 0.5 for ``"enet"``, 1.0 otherwise.
    A given share is kept, except that the lasso is share 1 and the elastic
    net is any other share: ``"lasso"`` with a share below 1, or ``"enet"``
    with share 1, is a contradiction and raises. The unpenalized
    ``"baseline"`` takes no share and raises on any.
    """
    if method == "baseline" and l1_ratio is not None:
        raise DataError(f"baseline selection takes no penalty, got l1_ratio={l1_ratio!r}")
    if l1_ratio is None:
        return 0.5 if method == "enet" else 1.0
    if (method == "lasso" and l1_ratio != 1.0) or (method == "enet" and l1_ratio == 1.0):
        raise DataError(
            f"selection {method!r} contradicts l1_ratio={l1_ratio!r}: the lasso "
            "is l1_ratio 1, the elastic net ('enet') any share below 1"
        )
    return l1_ratio


@dataclass(frozen=True)
class SelectionSpec:
    """How a subset is selected (see :func:`run_selection`).

    ``method`` is ``"baseline"`` (ranked studentized effects), ``"lasso"``,
    or ``"enet"``; penalized methods take exactly one of ``size`` / ``lam``,
    the baseline ``size`` and no penalty.
    ``levels`` (optional) switches on multi-resolution mode: a list of column
    groupings, coarsest first, among which the best-fitting level is chosen.
    ``config.l1_ratio`` follows :func:`method_l1_ratio`, with
    ``EnetConfig``'s default share 1 standing for the method's default;
    ``config.lam`` stays 0, as ``lam`` is the one penalty.
    """

    method: str = "lasso"
    size: int | None = None
    lam: float | None = None
    levels: tuple | None = None
    config: EnetConfig = field(default_factory=EnetConfig)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DataError(f"unknown selection method {self.method!r}")
        if self.method == "baseline":
            if self.size is None:
                raise DataError("baseline selection needs size=")
            if self.lam is not None:
                raise DataError(f"baseline selection takes no penalty, got lam={self.lam!r}")
            if self.levels is not None:
                raise DataError("multi-resolution mode needs a penalized method")
        elif (self.size is None) == (self.lam is None):
            raise DataError("pass exactly one of size= or lam=")
        if self.config.lam != 0.0:
            raise DataError(f"the penalty is the spec's lam=, not config.lam={self.config.lam!r}")
        l1 = self.config.l1_ratio
        l1 = method_l1_ratio(self.method, None if l1 == 1.0 else l1)
        object.__setattr__(self, "config", replace(self.config, l1_ratio=l1))
        if self.levels is not None:
            frozen = tuple(tuple(tuple(int(j) for j in g) for g in lvl) for lvl in self.levels)
            object.__setattr__(self, "levels", frozen)


@dataclass(frozen=True)
class SelectionResult:
    """A selected outcome subset with its diagnostics.

    ``selected`` lists column indices in selection-priority order (rank order
    for the baseline, path-entry order for penalized selection). ``scores``
    aligns with ``selected``: studentized effect sizes for the baseline,
    absolute coefficients otherwise. ``weighted_rss`` is the restricted
    weighted regression residual when the selector has access to the data,
    else ``None``.
    """

    selected: tuple[int, ...]
    method: str
    tuning: float
    scores: tuple[float, ...]
    weighted_rss: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DataError(f"unknown selection method {self.method!r}")
        if len(self.scores) != len(self.selected):
            raise DataError("scores and selected must have equal length")
        if len(set(self.selected)) != len(self.selected):
            raise DataError("selected contains duplicate indices")
        object.__setattr__(self, "selected", tuple(int(j) for j in self.selected))
        object.__setattr__(self, "scores", tuple(float(v) for v in self.scores))


@dataclass(frozen=True)
class PopulationTarget:
    """Population coefficient vector of the weighted regression of treatment
    on centered outcomes, with its support."""

    beta_star: np.ndarray
    support: tuple[int, ...]
    s_star: int
    tau: np.ndarray
    sigma_z: np.ndarray


def check_sizes(sizes, p: int) -> list[int]:
    """The sorted distinct subset ``sizes``, after checking that there is one
    and that each selects from ``p`` columns."""
    wanted = sorted(set(int(s) for s in sizes))
    if not wanted:
        raise DataError("sizes must be nonempty")
    if wanted[0] < 1 or wanted[-1] > p:
        raise DataError(f"sizes must be within [1, p={p}], got {wanted}")
    return wanted


def baseline_select(est: EffectEstimate, size: int) -> SelectionResult:
    """Top ``size`` outcome columns by studentized effect ``|tau_j| / sqrt(sigma_jj)``.

    Ties are broken toward the lower column index. Indices in the result
    refer to the source dataset's columns via ``est.index_set``.
    """
    check_sizes([size], len(est.index_set))
    diag = np.diag(est.sigma_hat)
    if np.any(diag <= 0):
        zero = est.index_set[int(np.argmin(diag))]
        raise NumericalError(
            f"outcome column {zero} has zero estimated variance; "
            "studentized ranking is undefined"
        )
    scores = np.abs(est.tau_hat) / np.sqrt(diag)
    order = np.lexsort((np.asarray(est.index_set), -scores))[:size]
    return SelectionResult(
        tuple(est.index_set[i] for i in order),
        "baseline",
        float(size),
        tuple(scores[order]),
    )


def _require_converged(lam: float, sweeps: int, converged: bool) -> None:
    if not converged:
        raise NumericalError(
            f"coordinate descent did not converge at lambda={lam!r} "
            f"within max_iter={sweeps} sweeps"
        )


def _size_selections(problem: WeightedProblem, sizes, spec: SelectionSpec,
                     n_lambdas: int, lambda_min_ratio: float | None
                     ) -> dict[int, SelectionResult]:
    """Size-``s`` selections on ``problem`` for every ``s`` in ``sizes``,
    from one pass down its penalty grid (a lasso's read off its knots).

    Each size is resolved at the first grid point whose active set reaches
    it, truncated in path-entry order (the order in which columns first
    became active; same-point entries break ties by ascending index). The
    pass stops once every size is resolved.
    """
    wanted = check_sizes(sizes, problem.p)
    entry_rank: dict[int, int] = {}
    results: dict[int, SelectionResult] = {}
    pending = list(wanted)
    largest_seen = 0
    for lam, beta, sweeps, converged in problem.walk_path(n_lambdas, lambda_min_ratio,
                                                          spec.config):
        _require_converged(lam, sweeps, converged)
        active = np.flatnonzero(beta).tolist()
        for j in active:
            if j not in entry_rank:
                entry_rank[j] = len(entry_rank)
        largest_seen = max(largest_seen, len(active))
        while pending and len(active) >= pending[0]:
            s = pending.pop(0)
            ranked = sorted(active, key=entry_rank.__getitem__)[:s]
            results[s] = SelectionResult(
                tuple(ranked), spec.method, lam,
                tuple(abs(beta.item(j)) for j in ranked), problem.subset_weighted_rss(ranked),
            )
        if not pending:
            break
    if pending:
        raise _exhausted(largest_seen, pending[0])
    return results


def population_beta_star(tau, sigma_z, pi: float) -> PopulationTarget:
    """Population coefficient vector of the weighted treatment-on-outcomes
    regression, in closed form.

    With ``r = (1 - pi) / pi`` and ``c = r + 1/r - 1`` the vector solves
    ``(sigma_z + c * tau tau') beta = r * tau``. It is proportional to
    ``sigma_z^{-1} tau`` (rank-one update identity), which is asserted here
    as an internal consistency check. Support is read off with a relative
    tolerance, ``_SUPPORT_TOL`` times the largest coefficient magnitude.
    """
    tau = np.asarray(tau, dtype=np.float64)
    sigma_z = np.asarray(sigma_z, dtype=np.float64)
    if tau.ndim != 1:
        raise DataError(f"tau must be 1-d, got shape {tau.shape}")
    p = tau.shape[0]
    if sigma_z.shape != (p, p):
        raise DataError(f"sigma_z shape {sigma_z.shape} does not match p={p}")
    if not np.allclose(sigma_z, sigma_z.T, atol=1e-8, rtol=1e-8):
        raise DataError("sigma_z is not symmetric")
    if not 0.0 < pi < 1.0:
        raise DataError(f"pi must be in (0, 1), got {pi}")
    try:
        np.linalg.cholesky(sigma_z)
    except np.linalg.LinAlgError:
        raise NumericalError("sigma_z is not positive definite") from None
    ratio = (1.0 - pi) / pi
    c = ratio + 1.0 / ratio - 1.0
    beta = ratio * np.linalg.solve(sigma_z + c * np.outer(tau, tau), tau)
    direction = np.linalg.solve(sigma_z, tau)
    norm_b = np.linalg.norm(beta)
    norm_d = np.linalg.norm(direction)
    if norm_b > 0 and norm_d > 0:
        cosine = float(beta @ direction / (norm_b * norm_d))
        if cosine < 1.0 - 1e-8:
            raise NumericalError(
                f"direction identity violated (cosine {cosine:.12f}); "
                "sigma_z is likely too ill-conditioned"
            )
    peak = float(np.abs(beta).max(initial=0.0))
    support = tuple(
        int(j) for j in np.flatnonzero(np.abs(beta) > _SUPPORT_TOL * peak)
    ) if peak > 0 else ()
    beta = beta.copy()
    beta.setflags(write=False)
    return PopulationTarget(beta, support, len(support), tau, sigma_z)


def run_selection(ds: TrialDataset, spec: SelectionSpec, estimator: str = "dim",
                  sizes=None, n_lambdas: int = 100,
                  lambda_min_ratio: float | None = None, rows=None):
    """Apply ``spec`` to ``ds``, or to its rows ``rows``: the one way to make
    a selection. With ``rows`` the result is that on ``ds.take_rows(rows)``
    bit for bit, but a penalized selection gathers those rows straight into
    its weighted columns (:meth:`hdte.wlasso.WeightedProblem.from_dataset`),
    so the row subset is never held beside them.

    The baseline ranks effects estimated with ``estimator``, unadjusted
    where ``ds`` has no covariates (``ds.usable_estimator``). A
    penalized selection is made on the dataset's problem, or on each level's
    (:func:`hdte.wlasso.level_problems`): by size from its penalty grid
    (:func:`_size_selections`), by ``spec.lam`` as the active set of one fit
    in descending ``|beta|`` (ties by ascending index). The level with the
    smallest restricted weighted RSS wins, the earliest on a tie. ``sizes``
    asks for several sizes from one ranking or one path walk; ``n_lambdas``
    and ``lambda_min_ratio`` shape the penalty grid.

    Returns one selection per size and, in multi-resolution mode, the index
    of the chosen level (``None`` otherwise). A lasso's size selection also
    takes ``rows`` as a 2-d array, a row set per row (a multi-split's first
    halves), and returns a list with that return, or the
    :class:`HdteError` raised in its place, per row set: their problems
    (those of their levels, or of their factored weighted columns) are set
    up stacked, and one knot walk per level serves them all
    (``_LevelStack.size_selections``).
    """
    if sizes is not None and (spec.lam is not None or spec.levels is not None):
        raise DataError("several sizes need a size-based selection without levels")
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        if spec.method != "lasso" or spec.lam is not None or sizes is not None:
            raise DataError("row sets are selected on together by a lasso's size only")
        try:
            stacks = level_problems(ds, spec.levels, rows)
        except HdteError as exc:   # a row set whose weights raise: each row set on its own
            return [exc] if len(rows) == 1 else [
                pick for part in rows for pick in run_selection(
                    ds, spec, estimator, None, n_lambdas, lambda_min_ratio, part[None])]
        size = check_sizes([spec.size], min(stack.k for stack in stacks))[0]
        out = []
        for levels in zip(*(stack.size_selections(size, n_lambdas, lambda_min_ratio)
                            for stack in stacks)):   # a row set's picks, level by level
            error = next((pick for pick in levels if not isinstance(pick, tuple)), None)
            if error is not None:   # the first level's error
                out.append(_exhausted(error, size) if isinstance(error, int) else error)
                continue
            best = min(range(len(levels)), key=lambda i: levels[i][3])   # the first least RSS
            result = SelectionResult(levels[best][0], spec.method, *levels[best][1:])
            out.append(((result,), None if spec.levels is None else best))
        return out
    if spec.method == "baseline":
        part = ds if rows is None else ds.take_rows(rows)
        est = adjusted_estimate(part, ds.usable_estimator(estimator))
        return tuple(baseline_select(est, s) for s in sizes or (spec.size,)), None
    problems = (level_problems(ds, spec.levels, rows) if spec.levels is not None
                else (WeightedProblem.from_dataset(ds, rows),))
    best: tuple[int, tuple[SelectionResult, ...]] | None = None
    for index, problem in enumerate(problems):
        if spec.lam is None:
            wanted = (spec.size,) if sizes is None else sizes
            picks = _size_selections(problem, wanted, spec, n_lambdas, lambda_min_ratio)
            results = tuple(picks[s] for s in wanted)
        else:
            fit = problem.fit(replace(spec.config, lam=spec.lam))
            _require_converged(fit.lam, fit.iterations, fit.converged)
            abs_beta = np.abs(fit.beta)
            active = np.flatnonzero(fit.beta)
            chosen = active[np.lexsort((active, -abs_beta[active]))].tolist()
            results = (SelectionResult(chosen, spec.method, fit.lam, abs_beta[chosen].tolist(),
                                       problem.subset_weighted_rss(chosen)),)
        if best is None or results[0].weighted_rss < best[1][0].weighted_rss:
            best = (index, results)
    index, results = best
    return results, index if spec.levels is not None else None


def _exhausted(largest: int, size: int) -> DataError:
    """The error of a size selection whose grid ran out at ``largest``."""
    return DataError(f"penalty path reached its smallest value with at most "
                     f"{largest} active columns; cannot select {size}")
