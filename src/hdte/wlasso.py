"""Weighted elastic net of treatment on centered outcomes.

The solver minimizes

    (1/n) sum_i w_i (t_i - (y_i - ybar)' beta - (x_i - xbar)' alpha)^2
        + 2 * lam * (l1_ratio * ||beta||_1 + (1 - l1_ratio) * ||beta||_2^2)

where ``w`` are inverse-propensity-squared weights, outcome and covariate
columns are centered at their unweighted means (no column is rescaled, so
``beta`` is fitted and reported on the outcomes' own units), the regression
carries no intercept, and ``alpha`` (the covariate block) is unpenalized.
Covariates are concentrated out exactly up front by
:func:`hdte.data.covariate_coefficients`: slopes on the weighted centered
covariates give a fit's ``alpha``, and the weighted residuals of the response
and outcome columns its ``beta`` subproblem and RSS. A block of rank below
``m`` by ``np.linalg.lstsq``'s rule (:func:`hdte.data.check_full_rank`) is a
:class:`NumericalError`, in a resolution level too. The ``beta`` subproblem
is then solved by cyclic coordinate descent on weighted moments (glmnet's
covariance mode), with an active-set sweep strategy and a final
stationarity check.

Moments. Moment preparation keeps the weighted concentrated outcomes, the
cross moments with the response and the Gram diagonal, all O(n p). Gram
columns are computed as a solve reads them (:class:`_Gram`), so a selection
at p = 20,000 never forms the p x p matrix; a small Gram (``_GRAM_WHOLE_MAX``)
is computed whole at its first read, in one product.

Sweeps. Once the nonzero set ``A`` has ``_BLOCK_MIN`` coordinates, each
iteration is one exact step (:class:`_Block`, after Osborne, Presnell & Turlach
2000): the minimizer with the signs of ``A`` fixed, from a Cholesky factor of
the active Gram that a path walk carries down its grid, stopped at the first
zero crossing. After a step that crosses none, zero coordinates with ``|ty_j -
q_j| > lam1`` enter the next one with the sign of ``ty_j - q_j`` (feature-sign
search, Lee, Battle, Raina & Ng 2007), by rows appended to the factor. The
scalar loop is the one fallback, with the bits of the soft-threshold update
``sign(z) max(|z| - lam1, 0) / denom`` in numpy; it passes long runs of zero
coordinates in vectorized tests of its own condition, resuming after each
entry. Solutions match the plain loop's to its tolerance.
What does not change along a path (the penalized set, the scalar loop's float
lists, the stationarity check's scale) is computed once per walk and carried
with the factor, so a solve on a small problem costs about its sweeps. A lasso
path is piecewise linear in ``lam``, so size selections read its grid off the
knots (:func:`_knot_walks`), with no coordinate descent; one walk advances
the paths of several problems with whole Grams at once.

Problems and resolution levels. A :class:`WeightedProblem` holds rows with
the Gram of the weighted stacked columns ``sqrt(w) [Xc | Yc | t]``, and
every fit, path walk and subset regression reads products of them. A
dataset's rows are its own weighted columns. The problems of several column
groupings of one dataset (the levels of multi-resolution selection) come
from one QR factorization of those columns (:func:`level_problems`).
Averaging columns commutes with centering and with the orthogonal factor,
so a level's rows are the QR factor of that ``R`` with its covariate and
outcome blocks averaged: at most ``m + p + 1`` rows, with no aggregating,
re-centering or re-regressing of the data. The two sources differ only in
how the covariates are concentrated out: a dataset concentrates in place,
its residuals taking the place of its rows, which it reads again from the
dataset where it needs them; a level reads the trailing block of its factor.
The levels of several row sets of one dataset (a multi-split's first halves)
are set up stacked, one factorization per row set and every step after it
once for all (``_LevelStack``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .data import (TrialDataset, check_full_rank, check_grouping, check_rows,
                   column_group_means, covariate_coefficients, full_rank_errors,
                   singular_errors, solve_nonsingular)
from .errors import DataError, NumericalError

__all__ = [
    "EnetConfig",
    "EnetFit",
    "EnetPath",
    "propensity_weights",
    "fit_weighted_enet",
    "lambda_max",
    "regularization_path",
    "WeightedProblem",
    "level_problems",
]

# Columns whose weighted second moment falls below this relative floor carry
# no information about the response and are pinned at beta_j = 0.
_DEGENERATE_REL = 1e-14

# Iterations on a nonzero set of at least this many coordinates are exact
# steps. One BLAS thread on a 2-vCPU Xeon, p = 500: at |A| = 8 a scalar sweep
# takes 22 us, an exact step 10 us after 19 us to factor; at |A| = 137, 507
# us against 48 + 317 us. One exact step does the work of many sweeps.
_BLOCK_MIN = 8

# The exact step's factor counts as failed where a squared pivot falls below
# this share of its diagonal entry: singular active Grams leave up to 1.3e-10,
# the factors on criterion 6's and a 250 x 4000 path no less than 3.6e-4.
_PIVOT_MIN = 1e-8

# A Gram whose rows x p x p product is at most this is computed whole at its
# first read, so its slot bookkeeping runs once per problem. Measured as above
# on lasso selections of size 2 and 5: whole Grams win below about 6e5 and
# lose up to 75% above (n = 2000, p = 64). A resolution level's Gram of k
# groups has at most k + 1 rows, so levels are whole up to k = 80.
_GRAM_WHOLE_MAX = 2**19

# A full sweep whose zero coordinates form runs of at least this mean length
# passes each run in one vectorized test. Measured as above: the scalar loop
# costs about 0.3 us per zero coordinate and a run test about 5 us, so they
# cross near 12-16; twice that keeps every p < 32 problem (the 6-24 column
# resolution levels among them) on the plain loop.
_ZERO_RUN_MIN = 32

# Rows gathered into the weighted columns, or again into their residuals, are
# taken about this many bytes at a time (at least one row); a chunk's ufuncs
# add buffers of up to 8192 elements. Gathering a whole block takes a copy of
# it: fancy indexing and ``np.take`` into a strided block both do.
_GATHER_BYTES = 1 << 16


@dataclass(frozen=True)
class EnetConfig:
    """Solver settings. ``lam`` is the penalty level, ``l1_ratio`` the lasso
    share of the penalty (1.0 is the pure lasso), ``tol`` the max coefficient
    change per sweep at which iteration stops, ``max_iter`` the sweep cap."""

    lam: float = 0.0
    l1_ratio: float = 1.0
    tol: float = 1e-7
    max_iter: int = 10_000

    def __post_init__(self):
        if self.lam < 0:
            raise DataError(f"lam must be >= 0, got {self.lam}")
        if not 0.0 < self.l1_ratio <= 1.0:
            raise DataError(f"l1_ratio must be in (0, 1], got {self.l1_ratio}")
        if self.tol <= 0:
            raise DataError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class EnetFit:
    """One solved penalized regression.

    ``beta`` is the coefficient vector on the outcome columns, ``alpha_cov``
    the unpenalized covariate coefficients (length 0 without covariates),
    ``active_set`` the indices of nonzero ``beta`` entries in ascending order,
    and ``weighted_rss`` the mean weighted squared residual of the full model.
    """

    beta: np.ndarray
    alpha_cov: np.ndarray
    active_set: tuple[int, ...]
    weighted_rss: float
    lam: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class EnetPath:
    """Fits down a penalty grid from :func:`lambda_max`, one per point (``lam``)."""

    fits: tuple[EnetFit, ...]


def propensity_weights(treatments) -> np.ndarray:
    """Per-unit weights ``1 / pi_hat**2`` (treated) and ``1 / (1 - pi_hat)**2``
    (control), with ``pi_hat`` the empirical treated fraction. Every solver
    entry point derives its weights from the dataset's treatments this way."""
    t = np.asarray(treatments, dtype=np.float64)
    n_t = t.sum()
    n = t.shape[0]
    if n_t == 0 or n_t == n:
        raise DataError("weights need both arms present (all-treated or all-control sample)")
    pi_hat = n_t / n
    return np.where(t == 1.0, 1.0 / pi_hat**2, 1.0 / (1.0 - pi_hat) ** 2)


def _mirror(square: np.ndarray, diag: np.ndarray) -> None:
    """Make ``square`` (or each of a stack) symmetric in place: its strict
    upper triangle copied onto the lower, ``diag`` on the diagonal and every
    ``-0.0`` made ``+0.0``, the values of the sum of the upper triangle, its
    transpose and ``diag(diag)``."""
    k = square.shape[-1]
    np.copyto(square, square.mT, where=np.tri(k, k, -1, dtype=bool))
    square[..., range(k), range(k)] = diag
    square += 0.0


class _Gram:
    """The weighted Gram ``(1/n) Z'Z`` of the concentrated outcomes ``Z``.
    ``Z`` is the weighted rows or, for a resolution level, a small triangular
    factor with the same Gram, so ``n`` is passed on its own.

    A column is computed the first time it is read, columns read together in
    one product, and kept, so memory is O(p * |ever read|) and a sparse solve
    never forms the p x p matrix; for a small Gram (``_GRAM_WHOLE_MAX``) the
    first read computes every column. An entry already held by an earlier
    column (within one product, the earlier in reading order) keeps that value
    and the diagonal is ``diag``, so the matrix read is exactly symmetric.
    """

    def __init__(self, z: np.ndarray, diag: np.ndarray, n: int):
        self._z, self._n, self.diag = z, n, diag
        p = z.shape[1]
        self._slot = np.full(p, -1, dtype=np.intp)   # store row of column j
        self._held = np.empty(0, dtype=np.intp)      # column in store row r
        self._row = [None] * p                       # column j as a view of its row
        self._store = np.empty((0, p))
        self._count = 0

    def _slots(self, idx: np.ndarray) -> np.ndarray:
        """Store rows of the distinct columns ``idx``, computing those not
        held in one product ``Z' Z[:, new]``."""
        slots = self._slot[idx]
        p = self._slot.size
        if self._count == p:
            return slots
        new = idx[slots < 0]
        if new.size:
            whole = self._z.shape[0] * p * p <= _GRAM_WHOLE_MAX
            if whole:   # the first read: all
                new = np.arange(p)
            count, k = self._count, new.size
            if count + k > self._store.shape[0]:
                grown = np.empty((max(8, 2 * count, count + k), self._store.shape[1]))
                grown[:count] = self._store[:count]
                self._store, self._held = grown, np.resize(self._held, grown.shape[0])
                for r, j in enumerate(self._held[:count].tolist()):
                    self._row[j] = grown[r]
            block = self._store[count:count + k]
            np.matmul(self._z.T, self._z[:, new], out=block.T)
            block /= self._n
            if count:
                block[:, self._held[:count]] = self._store[:count, new].T
            square = block if whole else block[:, new]   # whole, the store is square
            _mirror(square, self.diag[new])
            if not whole:
                block[:, new] = square
            self._slot[new] = np.arange(count, count + k)
            self._held[count:count + k] = new
            for r, j in enumerate(new.tolist(), start=count):
                self._row[j] = self._store[r]
            self._count = count + k
            slots = self._slot[idx]
        return slots

    def __getitem__(self, j: int) -> np.ndarray:
        """Row (equally, column) ``j``."""
        if self._row[j] is None:
            self._slots(np.array([j]))
        return self._row[j]

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """``G[idx]`` as a new array."""
        slots = self._slots(idx)   # first: it may replace the store
        return self._store[slots]

    def block(self, idx: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``G[idx][:, cols]`` as a new array."""
        slots = self._slots(idx)
        return self._store[slots[:, None], cols]

    def dot(self, idx: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``values @ G[idx]``, one product over the store without copying rows."""
        slots = self._slots(idx)
        coef = np.zeros(self._count)
        coef[slots] = values
        return coef @ self._store[:self._count]


@dataclass(frozen=True)
class _Moments:
    """Weighted moments of the covariate-concentrated problem. The Gram is
    not formed up front; :class:`_Gram` computes the columns a solve reads."""

    gram: _Gram               # (1/n) Yr' W Yr, on demand
    ty: np.ndarray            # (p,): (1/n) Yr' W tr
    tt: float                 # (1/n) tr' W tr
    penalized: np.ndarray     # (p,) bool mask, False for degenerate columns


def _moments(z: np.ndarray, r_t: np.ndarray, n: int) -> _Moments:
    """The moments of weighted concentrated outcomes ``z`` and response
    ``r_t`` (any rows with the moments ``n`` times the problem's), with
    degenerate columns masked."""
    diag = np.einsum("ij,ij->j", z, z) / n
    ty, tt = z.T @ r_t / n, float(r_t @ r_t / n)
    penalized = diag > _DEGENERATE_REL * max(1.0, float(diag.max(initial=0.0)))
    return _Moments(_Gram(z, diag, n), ty, tt, penalized)


def _weighted_columns(ds: TrialDataset, rows=None) -> tuple[np.ndarray, tuple]:
    """``sqrt(w) [Xc | Yc | t]`` of the rows ``rows`` of ``ds`` (all for
    ``None``) in one buffer, and its source ``(ds, rows, outcome means, root
    weights)``: covariates (if any) and outcomes centered as by
    :func:`hdte.data.center_columns`, raw treatments, rows scaled by root
    weights. Given rows are gathered from ``ds`` straight into the buffer and
    centered there, the bits of ``ds.take_rows(rows)``'s columns; that dataset is never built."""
    idx = None if rows is None else check_rows(rows, ds.n)
    stacked = np.empty((ds.n if idx is None else idx.size, ds.m + ds.p + 1))
    stacked[:, -1] = ds.treatments if idx is None else ds.treatments[idx]
    for block, lo in ((ds.covariates, 0), (ds.outcomes, ds.m)):
        if block is not None:
            part = stacked[:, lo:lo + block.shape[1]]
            if idx is not None:   # a chunk of rows at a time, so no copy of the part
                step = max(1, _GATHER_BYTES // (8 * block.shape[1]))
                for r in range(0, idx.size, step):
                    part[r:r + step] = block[idx[r:r + step]]
                block = part
            means = block.mean(axis=0)   # the outcomes' last
            np.subtract(block, means, out=part)
    root = np.sqrt(propensity_weights(stacked[:, -1]))
    stacked *= root[:, None]
    return stacked, (ds, idx, means, root)


def _kkt_violation(beta, q, ty, lam1, ridge, penalized) -> float:
    """Largest stationarity violation in gradient units.

    The smooth-part gradient is ``2 * (q - ty)`` with ``q = gram @ beta``.
    The violations are formed at half scale and doubled, which is exact.
    """
    half = q - ty
    violation = np.where(beta == 0.0, np.abs(half) - lam1,
                         np.abs(half + lam1 * np.sign(beta) + ridge * beta))
    return 2.0 * float(violation[penalized].max(initial=0.0))


def _scalar_sweep(work, beta, q, gram, ty, diag, denom, lam1) -> float:
    """One cyclic pass over ``work`` (Python ints), updating ``beta`` and
    ``q = gram @ beta`` in place; returns the largest coefficient change.
    ``ty``, ``diag`` and ``denom`` are Python float lists, so each update runs
    on floats with the bits of the soft-threshold update in numpy (``0.0 *
    z`` gives its signed zero and NaN). ``gram`` is read only at nonzero coordinates."""
    delta = 0.0
    for j in work:
        b_old = beta.item(j)
        z = ty[j] - q.item(j) + diag[j] * b_old
        if z > lam1:
            b_new = (z - lam1) / denom[j]
        elif z < -lam1:
            b_new = (z + lam1) / denom[j]
        else:
            b_new = 0.0 * z
        if b_new != b_old:
            q += gram[j] * (b_new - b_old)
            beta[j] = b_new
            step = abs(b_new - b_old)
            if step > delta:
                delta = step
    return delta


class _Block:
    """The exact step on an ordered coordinate set ``A`` (``order``) from a
    Cholesky factor ``L`` of ``G_AA + ridge I``, which a path walk carries
    down its grid: with the signs ``s`` fixed and other coordinates at zero,
    ``(G_AA + ridge I) b = ty_A - lam1 s``, stopped at the first zero crossing
    (set to exactly zero). A coordinate that left stays in the factor, held at
    zero by projecting ``L^-1 (ty_A - lam1 s)`` off its column of ``L^-1`` (in
    ``basis``); one that enters is appended (:meth:`extend`). The factor is
    built afresh for a new ridge, a failed extension or a step that would
    raise the objective; a fresh factor that fails either test is not built
    again until the set to cover changes.

    A block also carries what every solve on its ``problem`` reads: the
    penalized set, the stationarity check's scale and the scalar loop's float
    lists, with its denominators for the last ridge solved at."""

    def __init__(self, problem):
        self.gram, self.ty, diag = problem.gram, problem.ty, problem.gram.diag
        self.ridge = self.failed = None   # the factor's ridge; the set it last failed on
        self.penalized, self.full_set = problem.penalized, problem.penalized.nonzero()[0]
        self.kkt_scale = max(1.0, float(np.abs(self.ty).max(initial=0.0)),
                             float(diag.max(initial=0.0)))
        self.denom = None, None   # a ridge and the scalar loop's denominators at it

    @cached_property
    def lists(self) -> tuple[list, list, list]:
        """The scalar loop's full set, ``ty`` and Gram diagonal as Python
        lists, built at its first run (a knot path never runs it)."""
        return self.full_set.tolist(), self.ty.tolist(), self.gram.diag.tolist()

    def build(self, target, ridge) -> bool:
        """Factor the ascending set ``target`` afresh."""
        self.ridge, self.order = ridge, np.empty(0, dtype=np.intp)
        self.factor = self.matrix = self.basis = np.empty((0, 0))
        self.held = self.order
        return self.extend(target) or self.drop(target)

    def drop(self, target) -> bool:
        """No factor, nor one for ``target`` until the set to cover changes."""
        self.ridge, self.failed = None, (self.ridge, target.tobytes())
        return False

    def extend(self, new) -> bool:
        """Append the coordinates ``new``: with ``C = L^-1 G_AV`` their rows
        are ``[C', chol(G_VV + ridge I - C'C)]``. False, with the factor as it
        was, where a squared pivot falls below ``_PIVOT_MIN`` of its diagonal
        entry (as when ``|A|`` nears the rank of the rows)."""
        k, order = self.order.size, np.concatenate([self.order, new])
        rows = self.gram.rows(new)[:, order]   # [G_VA | G_VV]
        square = rows[:, k:]
        if self.ridge:
            square[np.diag_indices(new.size)] += self.ridge
        cross = dtrtrs(self.factor, rows[:, :k].T, lower=1)[0] if k else rows[:, :0].T
        tail, info = dpotrf(square - cross.T @ cross if k else square, lower=1, clean=0)
        if info != 0 or not (tail.diagonal() ** 2 > _PIVOT_MIN * square.diagonal()).all():
            return False
        factor = np.zeros((order.size, order.size), order="F")
        factor[:k, :k], factor[k:, :k], factor[k:, k:] = self.factor, cross.T, tail
        matrix = np.empty_like(factor)   # G_AA + ridge I, for the objective test
        matrix[:k, :k], matrix[:k, k:], matrix[k:] = self.matrix, rows[:, :k].T, rows
        self.basis = (np.vstack([self.basis, -dtrtrs(tail, cross.T @ self.basis, lower=1)[0]])
                      if self.basis.shape[1] else np.empty((order.size, 0)))
        self.order, self.factor, self.matrix = order, factor, matrix
        return True

    def cover(self, target, ridge) -> bool:
        """Make the factor cover the ascending set ``target``, its other
        coordinates held; False where no factor passes the pivot test."""
        if ridge == self.ridge:
            outside = np.zeros(self.ty.shape[0], dtype=bool)
            outside[target] = True
            held = ~outside[self.order]
            outside[self.order] = False
            new = np.flatnonzero(outside)
            if not new.size or self.extend(new):
                keep = held[self.held]
                self.held, self.basis = self.held[keep], self.basis[:, keep]
                held[self.held] = False
                if held.any():   # columns of L^-1 for the coordinates held from now
                    unit = np.eye(self.order.size)[:, np.flatnonzero(held)]
                    self.basis = np.hstack([self.basis, dtrtrs(self.factor, unit, lower=1)[0]])
                    self.held = np.append(self.held, np.flatnonzero(held))
                return True
        elif self.failed == (ridge, target.tobytes()):
            return False
        return self.build(target, ridge)

    def solve(self, rhs) -> np.ndarray:
        """``b`` on ``order``: ``(G_AA + ridge I) b = rhs`` where not held, 0 where held."""
        y, basis = dtrtrs(self.factor, rhs, lower=1)[0], self.basis
        if self.held.size:
            y -= basis @ np.linalg.solve(basis.T @ basis, basis.T @ y)
        b = dtrtrs(self.factor, y, lower=1, trans=1)[0]
        b[self.held] = 0.0
        return b

    def step(self, beta, lam1, direction, again=True):
        """Step ``beta`` on the set last covered, with the signs
        ``direction[order]`` (of ``ty - q`` where a zero coordinate enters).
        Returns ``(taken, q)``, ``q = gram @ beta`` after a step that crossed
        no zero. Not taken, ``beta`` stays: a coordinate would enter with the
        wrong sign, or the step would raise the objective on a fresh factor."""
        order, signs, b_old = self.order, direction[self.order], beta[self.order]
        rhs = self.ty[order] - lam1 * signs
        b = self.solve(rhs)
        crossed = (b * signs <= 0.0) & (signs != 0.0)
        if crossed.any():
            reach = b_old[crossed] / (b_old[crossed] - b[crossed])
            if reach.min() == 0.0:
                return False, None
            first = np.flatnonzero(crossed)[reach.argmin()]
            b = b_old + reach.min() * (b - b_old)
            b[first] = 0.0
            b[b * signs < 0.0] = 0.0   # a tie lands within rounding of zero
        # The objective changes by change' (total - 2 rhs), up to rounding.
        change, total = b - b_old, self.matrix @ (b + b_old)
        if change @ (total - 2.0 * rhs) > 1e-10 * np.abs(change) @ (np.abs(total) + np.abs(rhs)):
            target = np.flatnonzero(direction)
            if not again:   # the rise is on a fresh factor
                self.drop(target)
            elif self.build(target, self.ridge):   # a failed build drops the factor
                return self.step(beta, lam1, direction, again=False)
            return False, None
        beta[order] = b
        return True, None if crossed.any() else self.gram.dot(order, b)


def _sparse_full_sweep(nonzero, beta, q, block, args) -> float:
    """The scalar full sweep over ``block``'s penalized set, bit for bit, with
    the zero coordinates between consecutive ``nonzero`` ones passed in vectorized
    tests of the loop's own condition ``|ty_j - q_j| <= lam1``: a coordinate that
    fails one (or is not a number) is updated alone, if penalized, and the test
    resumes after it. ``args`` are those of :func:`_scalar_sweep` after ``q``."""
    delta, lo, ty, lam1, end = 0.0, 0, block.ty, args[-1], block.ty.shape[0]
    for a in (*nonzero.tolist(), end):
        while lo <= a:   # the run [lo, a), then a
            stays = np.abs(ty[lo:a] - q[lo:a]) <= lam1
            j = a if stays.all() else lo + int(stays.argmin())
            if j < end and block.penalized[j]:
                delta = max(delta, _scalar_sweep((j,), beta, q, *args))
            lo = j + 1
    return delta


def _cd_solve(problem: _Moments, config: EnetConfig, lam: float, beta0=None,
              objective_trace=None, block=None) -> tuple[np.ndarray, int, bool]:
    """Coordinate descent on the concentrated problem, with exact steps.

    Returns ``(beta, sweeps, converged)`` with ``beta`` a new array and
    ``sweeps`` the exact steps, extensions and scalar sweeps (each counted
    against ``max_iter``). With ``|A| >= _BLOCK_MIN`` an iteration is an exact
    step (:class:`_Block`, a path walk's ``block``); after one that crosses no
    zero, zero coordinates with ``|ty_j - q_j| > lam1`` enter the next step
    with the sign of ``ty_j - q_j``, and with none the fit has converged if
    the stationarity check holds within ``10 * tol`` of the problem scale.
    The scalar loop runs where there is no factor or a step is not taken, and
    for the rest of the solve once that check fails; its sweeps alternate
    between the full set (with long zero runs, :func:`_sparse_full_sweep`) and
    ``A``, and converge on a full sweep that changes no coefficient by
    ``tol``, with the same check.
    """
    gram, ty = problem.gram, problem.ty
    p = ty.shape[0]
    block = _Block(problem) if block is None else block
    lam1 = lam * config.l1_ratio
    ridge = 2.0 * lam * (1.0 - config.l1_ratio)
    full_set, full_list, penalized = block.full_set, block.lists[0], block.penalized
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=np.float64)
    beta[~penalized] = 0.0
    nonzero = beta.nonzero()[0]
    q = np.zeros(p) if nonzero.size == 0 else None   # None: stale
    if block.denom[0] != ridge:
        block.denom = ridge, (gram.diag + ridge).tolist()
    args = gram, *block.lists[1:], block.denom[1], lam1   # the scalar loop's
    kkt_tol = 10.0 * config.tol * block.kkt_scale

    def current_q():
        nonlocal q
        if q is None:   # gram is symmetric; below _BLOCK_MIN, the loop's bits
            q = (gram.dot(nonzero, beta[nonzero]) if nonzero.size >= _BLOCK_MIN
                 else beta[nonzero] @ gram.rows(nonzero))
        return q

    def stationary():
        return _kkt_violation(beta, current_q(), ty, lam1, ridge, penalized) <= kkt_tol

    sweeps, converged, on_full_set, push, exact = 0, False, True, 0.0, True
    while sweeps < config.max_iter and not converged:
        sweeps += 1
        taken = False
        if exact and nonzero.size >= _BLOCK_MIN:
            direction, push = np.sign(beta) + push, 0.0
            if block.cover(direction.nonzero()[0], ridge):
                taken, q_step = block.step(beta, lam1, direction)
                q, on_full_set = q_step if taken else q, True
                if q_step is not None:   # push: the signs of the coordinates that enter
                    gap = ty - q
                    enters = (np.abs(gap) > lam1) & penalized & (beta == 0.0)
                    if enters.any():
                        push = np.where(enters, np.sign(gap), 0.0)
                        sweeps += sweeps < config.max_iter   # the extension
                    else:   # after a failed check the scalar loop runs; the factor stays
                        converged = exact = stationary()
        if not taken:
            if not on_full_set:
                delta = _scalar_sweep(nonzero.tolist(), beta, current_q(), *args)
            elif full_set.size - nonzero.size >= _ZERO_RUN_MIN * (nonzero.size + 1):
                delta = _sparse_full_sweep(nonzero, beta, current_q(), block, args)
            else:
                delta = _scalar_sweep(full_list, beta, current_q(), *args)
            converged = delta < config.tol and on_full_set and stationary()
            on_full_set = delta < config.tol
        nonzero = beta.nonzero()[0]
        if objective_trace is not None:
            objective_trace.append(problem.tt - 2.0 * beta @ ty + beta @ current_q()
                                   + 2.0 * lam1 * np.abs(beta).sum() + ridge * (beta @ beta))
    if not np.all(np.isfinite(beta)):
        raise NumericalError("coordinate descent produced non-finite coefficients")
    return beta, sweeps, converged


def _assemble_fit(slopes: np.ndarray | None, rows: np.ndarray, n: int, lam: float,
                  beta: np.ndarray, sweeps: int, converged: bool) -> EnetFit:
    """Package a fresh ``beta`` with its covariate block (from the
    ``slopes``) and RSS (from the concentrated ``rows`` ``[z | r_t]``, whose
    residuals ``r_t - z beta`` have the weighted RSS times ``n``)."""
    alpha = np.zeros(0)
    if slopes is not None:
        alpha = slopes[:, -1] - slopes[:, :-1] @ beta
    p = beta.shape[0]
    residual = rows[:, p] - rows[:, :p] @ beta
    rss = float(residual @ residual / n)
    active = tuple(np.flatnonzero(beta).tolist())
    beta.setflags(write=False)
    alpha.setflags(write=False)
    return EnetFit(beta, alpha, active, rss, float(lam), sweeps, converged)


def fit_weighted_enet(ds: TrialDataset, config: EnetConfig) -> EnetFit:
    """Solve the weighted penalized regression at ``config.lam``.

    At ``lam = 0`` this is the weighted least-squares fit of the treatment
    indicator on centered outcomes (and covariates). Zero-variance outcome
    columns are excluded from the fit with their coefficient pinned at zero.
    """
    return WeightedProblem.from_dataset(ds).fit(config)


def _lambda_max_from(problem: _Moments, l1_ratio: float) -> float:
    if not problem.penalized.any():
        return 0.0
    return float(np.max(np.abs(problem.ty[problem.penalized]))) / l1_ratio


def lambda_max(ds: TrialDataset, l1_ratio: float = 1.0) -> float:
    """Smallest penalty at which the fitted ``beta`` is identically zero: the
    largest absolute weighted cross moment between the covariate-concentrated
    centered outcomes and the uncentered response, over ``l1_ratio``."""
    if not 0.0 < l1_ratio <= 1.0:
        raise DataError(f"l1_ratio must be in (0, 1], got {l1_ratio}")
    moments = WeightedProblem.from_dataset(ds).prepare()[0]
    return _lambda_max_from(moments, l1_ratio)


def _min_ratio(n: int, p: int, n_lambdas: int, lambda_min_ratio: float | None) -> float:
    """Check the grid arguments of a path walk over ``n`` rows and ``p``
    outcome columns, before any moment is formed; the grid's ratio."""
    if n_lambdas < 2:
        raise DataError(f"n_lambdas must be >= 2, got {n_lambdas}")
    if lambda_min_ratio is None:
        lambda_min_ratio = 0.01 if p > n else 1e-4
    if not 0.0 < lambda_min_ratio < 1.0:
        raise DataError(f"lambda_min_ratio must be in (0, 1), got {lambda_min_ratio}")
    return lambda_min_ratio


_ZERO_TOP = ("lambda_max is zero (response is weighted-orthogonal to every "
             "outcome column); the penalty grid is undefined")


def _path_grid(problem: _Moments, config: EnetConfig, n_lambdas: int,
               min_ratio: float) -> np.ndarray:
    """The descending penalty grid of ``problem``, from its ``lambda_max``."""
    lam_top = _lambda_max_from(problem, config.l1_ratio)
    if lam_top <= 0.0:
        raise NumericalError(_ZERO_TOP)
    return _path_grids(np.array([lam_top]), n_lambdas, min_ratio)[0]


def _path_grids(lam_top: np.ndarray, n_lambdas: int, min_ratio: float) -> np.ndarray:
    """One descending grid (row) from each positive ``lambda_max`` in
    ``lam_top``: ``np.geomspace(top, top * min_ratio, n_lambdas)`` bit for
    bit, without its argument handling."""
    stop, top = lam_top * min_ratio, np.log10(lam_top)
    step = (np.log10(stop) - top) / (n_lambdas - 1)
    grid = np.power(10.0, np.arange(n_lambdas) * step[:, None] + top[:, None])
    grid[:, 0], grid[:, -1] = lam_top, stop
    return grid


def _walk_path(problem: _Moments, grid: np.ndarray, config: EnetConfig):
    """Yield ``(lam, beta, sweeps, converged)`` down the grid with warm
    starts, ``beta`` a copy that the walk never reads. The top-of-grid
    solution is identically zero by construction of ``lambda_max`` and is
    emitted without iterating. One :class:`_Block` serves every grid point,
    so its factor is extended down the path (and rebuilt at each point for an
    elastic net)."""
    beta = np.zeros(problem.ty.shape[0])
    block = _Block(problem)
    yield float(grid[0]), beta.copy(), 0, True
    for lam in grid[1:]:
        beta, sweeps, converged = _cd_solve(problem, config, lam, beta0=beta, block=block)
        yield float(lam), beta.copy(), sweeps, converged


def _knot_walks(gram, diag, ty, penalized, grids, live, errors):
    """Lasso paths of problems with ``ty`` ``(B, p)`` down ``grids`` (a row
    each), exact at the first grid point below each knot (LARS with the
    lasso modification, Efron et al. 2004), a knot of each ``live`` walk per
    iteration; the caller may clear ``live``. Yields ``(inside, g, beta)``:
    the walks with a grid point before their next knot, its index ``g`` and
    the coefficients there. ``gram`` is one problem's :class:`_Gram` or a
    stack of whole Grams ``(B, p, p)``, read at the columns entered so far:
    a direction solves ``G_AA v = s_A`` on the active set ``A``, all walks in
    one stacked solve with the identity outside ``A``, and a column entering
    for the first time passes the pivot test where its Schur complement
    against those columns is above ``_PIVOT_MIN`` of its diagonal entry. A
    column failing it, as a copy of an active one does, stays out while its
    ``|gap|`` stays at ``lam``; once it rises above, the path has left these
    knots, and the walk stores a :class:`NumericalError` in ``errors[b]``
    and stops rather than yield a point that is not stationary."""
    count, p = ty.shape
    walks, lam, tie, gap = np.arange(count), grids[:, 0].copy(), 1e-12 * grids[:, 0], ty.copy()
    (beta, sign), (entered, failed, left) = np.zeros((2, count, p)), np.zeros((3, count, p), bool)
    order, held = np.zeros((count, 0), dtype=np.intp), np.zeros(count, dtype=np.intp)
    shut = np.hstack((~penalized, ~penalized))   # side k < p: gap_k = lam; p + k: -gap_k = lam
    last, reach, room = np.zeros_like(shut), np.empty((count, 2 * p)), np.empty((count, p))
    enter = ~shut & (np.hstack((ty, -ty)) >= (lam - tie)[:, None])

    def block(cols):   # G[order, cols] per walk
        if isinstance(gram, _Gram):
            return gram.block(order[0], cols[0])[None]
        return gram[walks[:, None, None], order[:, :, None], cols[:, None, :]]

    def solve(mask, rhs):   # G_EE x = rhs on the entered columns in ``mask``
        square = np.where(mask[:, :, None] & mask[:, None, :], block(order), np.eye(mask.shape[1]))
        return np.linalg.solve(square, rhs[..., None])[..., 0]

    def stop(ends, t):   # where a failed column's |gap| passed lam, t below it
        off = failed & (np.abs(gap - t[:, None] * w) > (lam - t + tie)[:, None])
        for b in np.flatnonzero(ends & live & off.any(axis=1)):
            errors[b], live[b] = NumericalError(
                f"lasso path lost at {np.count_nonzero(sign[b])} active columns: column "
                f"{off[b].argmax()} failed the pivot test but is no copy of them"), False

    while live.any():
        if last.any():   # a leaving column's own side opens after the next knot
            shut &= ~last
            last[:] = False
        if left.any():   # its other side now
            last = np.hstack((left & (sign > 0.0), left & (sign < 0.0)))
            shut &= ~np.hstack((last[:, p:], last[:, :p]))
            beta[left] = sign[left] = 0.0
        pending = (enter[:, :p] | enter[:, p:]) & live[:, None]
        while pending.any():   # the lowest entering column of each walk, one at a time
            b = np.flatnonzero(pending.any(axis=1))
            j, head = pending[b].argmax(axis=1), np.zeros(count, dtype=np.intp)
            head[b] = j
            valid = np.arange(order.shape[1]) < held[:, None]
            cross = block(head[:, None])[..., 0] * valid
            pivot = (diag[walks, head] - (cross * solve(valid, cross)).sum(axis=1))[b]
            passed, again = pivot > _PIVOT_MIN * diag[b, j], entered[b, j]
            pending[b, j] = False
            shut[b, j] = shut[b, j + p] = True
            ok, new = again | passed, passed & ~again
            sign[b[ok], j[ok]] = np.where(gap[b[ok], j[ok]] > 0.0, 1.0, -1.0)
            failed[b[~ok], j[~ok]] = entered[b[new], j[new]] = True
            if new.any() and held[b[new]].max() == order.shape[1]:
                order = np.hstack((order, np.zeros((count, 1), dtype=np.intp)))
            order[b[new], held[b[new]]] = j[new]
            held[b[new]] += 1
        valid = np.arange(order.shape[1]) < held[:, None]
        cells = (np.nonzero(valid)[0], order[valid])   # (walk, column) of each entered column
        s_entered = np.take_along_axis(sign, order, axis=1) * valid
        v = solve(s_entered != 0.0, s_entered)   # the direction on the entered columns
        w = (gram.dot(order[0], v[0])[None] if isinstance(gram, _Gram) else
             (v[:, None, :] @ np.take_along_axis(gram, order[:, :, None], axis=1))[:, 0])
        reach[:, :p] = w   # a side with slope w_k or -w_k is reached once lam has
        np.negative(w, out=reach[:, p:])   # fallen by t with gap_k - t slope_k = lam - t
        closed = shut | (reach >= 1.0)
        np.subtract(1.0, reach, out=reach)
        reach[closed] = 1.0
        np.divide(np.subtract(lam[:, None], gap, out=room), reach[:, :p], out=reach[:, :p])
        np.divide(np.add(lam[:, None], gap, out=room), reach[:, p:], out=reach[:, p:])
        reach[closed] = np.inf
        b = np.take_along_axis(beta, order, axis=1)
        falls = b * v < 0.0   # coefficients heading to zero
        exits = np.divide(-b, v, out=np.full(b.shape, np.inf), where=falls)
        step = np.maximum(0.0, np.minimum(reach.min(axis=1), exits.min(axis=1, initial=np.inf)))
        g = np.minimum((grids >= lam[:, None]).sum(axis=1), grids.shape[1] - 1)
        t = lam - grids[walks, g]   # the first grid point below lam, t below it
        if failed.any():
            stop(t < step, t)
        inside = live & (t < step)
        if failed.any():   # at the knot, after the grid point, or at the grid's end
            stop(live, np.minimum(step, lam - grids[:, -1]))
        ends = lam - step <= grids[:, -1]
        at = beta.copy()
        at[cells] += (t[:, None] * v)[valid]
        yield inside, g, at
        live &= ~ends
        step = np.where(live, step, 0.0)
        beta[cells] += (step[:, None] * v)[valid]
        lam -= step
        gap -= step[:, None] * w
        left = np.zeros((count, p), dtype=bool)
        left[cells] = (falls & (exits <= (step + tie)[:, None]))[valid]
        enter = reach <= (step + tie)[:, None]


def _knot_path(problem: _Moments, grid: np.ndarray):
    """:func:`_walk_path` for the lasso, exact, at the first grid point below
    each knot: the :func:`_knot_walks` of one problem, raising its error."""
    errors = [None]
    for inside, g, beta in _knot_walks(problem.gram, problem.gram.diag[None], problem.ty[None],
                                       problem.penalized[None], grid[None], np.ones(1, bool),
                                       errors):
        if inside[0]:
            yield float(grid[g[0]]), beta[0], 0, True
        if errors[0] is not None:
            raise errors[0]


def regularization_path(ds: TrialDataset, n_lambdas: int = 100,
                        lambda_min_ratio: float | None = None,
                        config: EnetConfig = EnetConfig()) -> EnetPath:
    """Fits along a log-spaced descending penalty grid with warm starts.

    The grid runs from ``lambda_max`` down to ``lambda_min_ratio *
    lambda_max`` (default ratio 0.01 when p > n, else 1e-4). ``config.lam``
    is ignored; every grid point gets its own fit.
    """
    min_ratio = _min_ratio(ds.n, ds.p, n_lambdas, lambda_min_ratio)
    moments, slopes, rows = WeightedProblem.from_dataset(ds).prepare()
    grid = _path_grid(moments, config, n_lambdas, min_ratio)
    return EnetPath(tuple(_assemble_fit(slopes, rows, ds.n, *point)
                          for point in _walk_path(moments, grid, config)))


def _check_subset(subset, n: int, p: int) -> np.ndarray:
    """``subset`` as an index array, checked for a restricted regression."""
    idx = np.asarray(subset, dtype=np.intp)
    if idx.size != len(set(idx.tolist())):
        raise DataError("subset contains duplicate indices")
    if idx.size and (idx.min() < 0 or idx.max() >= p):
        raise DataError(f"subset indices out of range for p={p}")
    if idx.size > min(n - 2, p):
        raise DataError(f"subset size {idx.size} exceeds min(n - 2, p) = {min(n - 2, p)}")
    return idx


class WeightedProblem:
    """The weighted problem of a dataset or of one of its resolution levels:
    ``rows`` with the Gram of ``sqrt(w) [Xc | Yc | t]`` for ``n`` units, ``m``
    covariate and ``p`` outcome columns (``m`` is 0 without covariates).

    For a dataset (:meth:`from_dataset`) the rows are its own weighted
    centered columns; for a resolution level (:func:`level_problems`) they
    are a small triangular factor. Every selection reads products of these
    columns, so one walk, one fit and one subset regression serve both; the
    sources differ only in how covariates are concentrated out
    (:meth:`_concentrate`); a dataset with covariates holds one buffer of
    rows, as its concentrated residuals replace ``rows`` (``None`` then).
    """

    def __init__(self, rows: np.ndarray, n: int, m: int, p: int, source=None):
        self.rows, self.n, self.m, self.p, self._source = rows, n, m, p, source

    @classmethod
    def from_dataset(cls, ds: TrialDataset, rows=None) -> "WeightedProblem":
        """The problem of ``ds``, or of its rows ``rows`` (that of
        ``ds.take_rows(rows)`` bit for bit, without building it), on its
        weighted rows."""
        weighted, source = _weighted_columns(ds, rows)
        return cls(weighted, weighted.shape[0], ds.m, ds.p, source if ds.m else None)

    def _concentrate(self, slopes: bool) -> tuple[np.ndarray | None, np.ndarray]:
        """The slopes of ``[Yc | t]`` on ``Xc`` and the concentrated rows
        ``[Yc | t] - Q Q' [Yc | t]`` (:func:`hdte.data.covariate_coefficients`),
        computed once: the weighted rows go once ``Q' [Yc | t]`` is taken,
        ``Q Q' [Yc | t]`` is one product (in chunks BLAS takes other kernels)
        and ``[Yc | t]``, read again, is subtracted in place. Slopes not asked
        for are not kept; a later call that asks for them gathers the weighted
        rows again."""
        if self.rows is None and slopes and self._concentrated[0] is None:
            self.rows = _weighted_columns(*self._source[:2])[0]
        if self.rows is not None:
            q, coef, found = covariate_coefficients(
                self.rows[:, :self.m], self.rows[:, self.m:], "weighted covariate block")
            self.rows = None   # before the product, which takes a buffer as large
            rows = q @ coef
            del q, coef
            step = max(1, _GATHER_BYTES // (8 * self.p))
            chunk, t = np.empty((min(step, self.n), self.p)), np.empty(min(step, self.n))
            for lo in range(0, self.n, step):
                part, k = rows[lo:lo + step], min(step, self.n - lo)
                self._read(chunk[:k], t[:k], lo)
                np.subtract(chunk[:k], part[:, :-1], out=part[:, :-1])
                np.subtract(t[:k], part[:, -1], out=part[:, -1])
            self._concentrated = found if slopes else None, rows
        return self._concentrated

    def _read(self, out: np.ndarray, t: np.ndarray, lo: int = 0, cols=slice(None)) -> None:
        """``sqrt(w) Yc[:, cols]`` and ``sqrt(w) t`` of the rows from ``lo`` on
        into ``out`` and ``t``, from the dataset by the elementwise operations
        of :func:`_weighted_columns` on the same values, so with its bits."""
        ds, idx, means, root = self._source
        pos = slice(lo, lo + out.shape[0])
        rows = np.arange(pos.start, pos.stop) if idx is None else idx[pos]
        np.take(ds.outcomes[:, cols], rows, axis=0, out=out, mode="clip")   # "raise" buffers
        out -= means[cols]
        out *= root[pos, None]
        np.multiply(ds.treatments[rows], root[pos], out=t)

    def prepare(self, slopes: bool = True) -> tuple[_Moments, np.ndarray | None, np.ndarray]:
        """The moments of the covariate-concentrated problem, with what
        reports a fit: the covariate slopes (``None`` without covariates, and
        where ``slopes`` is false they may be) and the concentrated rows
        ``[z | r_t]``."""
        coef, rows = self._concentrate(slopes) if self.m else (None, self.rows)
        return _moments(rows[:, :self.p], rows[:, self.p], self.n), coef, rows

    def fit(self, config: EnetConfig) -> EnetFit:
        """The fit of :func:`fit_weighted_enet`, on this problem."""
        moments, slopes, rows = self.prepare()
        beta, sweeps, converged = _cd_solve(moments, config, config.lam)
        return _assemble_fit(slopes, rows, self.n, config.lam, beta, sweeps, converged)

    def walk_path(self, n_lambdas: int = 100, lambda_min_ratio: float | None = None,
                  config: EnetConfig = EnetConfig()):
        """The grid of :func:`regularization_path` on this problem, walked
        lazily: an iterator of ``(lam, beta, sweeps, converged)`` with
        ``beta`` a fresh array. Builds no :class:`EnetFit`, so a caller that
        stops early pays only for the grid points it reads. Arguments are
        checked on the call. A lasso path yields its first grid point below
        each knot, exact (:func:`_knot_path`); an elastic net descends every
        grid point by coordinate descent (:func:`_walk_path`)."""
        min_ratio = _min_ratio(self.n, self.p, n_lambdas, lambda_min_ratio)
        moments = self.prepare(slopes=False)[0]
        grid = _path_grid(moments, config, n_lambdas, min_ratio)
        return (_knot_path(moments, grid) if config.l1_ratio == 1.0
                else _walk_path(moments, grid, config))

    def subset_weighted_rss(self, subset) -> float:
        """Mean weighted squared residual of the unpenalized regression of
        the treatment indicator on the centered outcome columns in
        ``subset``; it reads the subset's and the treatment's columns, for a
        dataset with covariates again, in the rows' layout (and BLAS route).

        The empty subset returns ``(1/n) * sum_i w_i * t_i**2`` (no
        regressors, no intercept). Covariates are not part of this
        regression."""
        idx = _check_subset(subset, self.n, self.p)
        if self._source is None:
            t, cols = self.rows[:, self.m + self.p], self.rows[:, self.m + idx]
        else:
            t, cols = np.empty(2 * self.n)[::2], np.empty((idx.size, self.n)).T
            self._read(cols, t, cols=idx)
        if idx.size == 0:
            return float(t @ t / self.n)
        beta = solve_nonsingular(cols.T @ cols / self.n, cols.T @ t / self.n,
                                 "restricted design", idx)
        residual = t - cols @ beta
        return float(residual @ residual / self.n)


class _LevelStack:
    """The problems of one resolution level, or of a dataset's own columns,
    on several row sets of one size, their factors stacked ``(B, rows, m +
    k + 1)`` (:func:`level_problems`)."""

    def __init__(self, factors: np.ndarray, n: int, m: int, k: int):
        self.factors, self.n, self.m, self.k = factors, n, m, k

    def problem(self, b: int) -> WeightedProblem:
        """The problem of row set ``b``."""
        return _LevelProblem(self.factors[b], self.n, self.m, self.k)

    def size_selections(self, size: int, n_lambdas: int, lambda_min_ratio) -> list:
        """Per row set, what :func:`hdte.selection.run_selection` reads off
        its problem's lasso walk at ``size``: ``(columns in entry order, grid
        penalty, |beta| there, weighted RSS)``, the :class:`HdteError` the
        problem raises (on its covariates, grid, walk or RSS, in that order),
        or the largest active set its walk reached before the grid ran out.
        Moments and grids come from stacked products, and one knot walk
        serves every row set (:func:`_knot_walks`)."""
        m, n, count = self.m, self.n, self.factors.shape[0]
        min_ratio = _min_ratio(n, self.k, n_lambdas, lambda_min_ratio)
        errors = (full_rank_errors(self.factors[:, :m, :m], n, "weighted covariate block")
                  if m else [None] * count)
        z, r_t = self.factors[:, m:, m:-1], self.factors[:, m:, -1:]
        diag = (z * z).sum(axis=1) / n
        gram, ty = z.mT @ z / n, (z.mT @ r_t)[..., 0] / n
        _mirror(gram, diag)
        penalized = diag > _DEGENERATE_REL * np.maximum(1.0, diag.max(axis=1, keepdims=True))
        lam_top = np.where(penalized, np.abs(ty), 0.0).max(axis=1)
        out = [error or (NumericalError(_ZERO_TOP) if top <= 0.0 else None)
               for error, top in zip(errors, lam_top.tolist())]
        live = np.array([pick is None for pick in out])
        grids = _path_grids(np.where(live, lam_top, 1.0), n_lambdas, min_ratio)
        first, largest = np.full((count, self.k), grids.shape[1]), np.zeros(count, dtype=int)
        for inside, g, beta in _knot_walks(gram, diag, ty, penalized, grids, live, out):
            nonzero = (beta != 0.0) & inside[:, None]   # ranked by first grid point, then index
            first = np.where(nonzero, np.minimum(first, g[:, None]), first)
            largest = np.maximum(largest, nonzero.sum(axis=1))
            for b in np.flatnonzero(nonzero.sum(axis=1) >= size):
                cols = np.flatnonzero(nonzero[b])
                cols = cols[np.argsort(first[b, cols], kind="stable")][:size]
                out[b], live[b] = (cols.tolist(), float(grids[b, g[b]]),
                                   np.abs(beta[b, cols]).tolist()), False
        done = [b for b, pick in enumerate(out) if isinstance(pick, tuple)]
        if done:   # each pick's weighted RSS, the regression of subset_weighted_rss
            picked, rows = np.array([out[b][0] for b in done]), self.factors[done]
            cols, t = np.take_along_axis(rows, m + picked[:, None, :], axis=2), rows[:, :, -1:]
            gram = cols.mT @ cols / n
            try:
                _check_subset(picked[0], n, self.k)
                errors = singular_errors(gram, "restricted design", picked)
            except DataError as exc:
                errors = [exc] * len(done)
            fine = np.array([error is None for error in errors])
            residual = t[fine] - cols[fine] @ np.linalg.solve(gram[fine], cols[fine].mT @ t[fine] / n)
            rss = iter((np.square(residual[..., 0]).sum(axis=1) / n).tolist())
            for b, error in zip(done, errors):
                out[b] = error or (*out[b], next(rss))
        return [int(largest[b]) if pick is None else pick for b, pick in enumerate(out)]


class _LevelProblem(WeightedProblem):
    """A resolution level's problem, on the ``R`` factor of its weighted
    columns (:func:`level_problems`)."""

    def _concentrate(self, slopes: bool) -> tuple[np.ndarray | None, np.ndarray]:
        """The factor's leading ``m`` rows hold the covariates' ``R``, so the
        slopes are ``R11^-1 R12`` (``None`` unless ``slopes``) and the
        trailing rows ``R22`` have the concentrated Gram. The rank test is
        :func:`hdte.data.check_full_rank` of ``R11`` with the dataset's
        ``n``; projecting the factor's rows instead would add ``m`` zero rows,
        move Gram bits and take the rank cutoff from the factor's row count."""
        m = self.m
        check_full_rank(self.rows[:m, :m], self.n, "weighted covariate block")
        coef = np.linalg.solve(self.rows[:m, :m], self.rows[:m, m:]) if slopes else None
        return coef, self.rows[m:, m:]


def level_problems(ds: TrialDataset, levels, rows=None) -> tuple:
    """One :class:`WeightedProblem` per column grouping in ``levels``, all
    from one QR factorization of the dataset's weighted base columns
    ``sqrt(w) [Xc | Yc | t]`` (see the module notes on resolution levels).
    With ``rows``, those of ``ds.take_rows(rows)``, bit for bit, gathered
    without building it (:meth:`WeightedProblem.from_dataset`). With
    ``rows`` a 2-d array, a row set per row (a multi-split's first halves),
    each level's problems of those row sets come stacked, one
    ``_LevelStack`` per level, or with ``levels`` ``None`` one of the row
    sets' own factors: each row set is factored on its own, and every step
    after that runs once over the stack, with each problem's bits.

    A level's data are the dataset's outcome columns (and covariates, which
    share their layout) averaged by one grouping, as
    :func:`hdte.data.aggregate_columns` builds them; its ``p`` is the number
    of groups. Its problem gives what the aggregated dataset's does, up to
    rounding, and raises the same errors.

    The cost is O(n (m + p)^2) for the dataset and O((m + p)^3) per level,
    whatever its number of groups. Groupings are checked as
    :func:`hdte.data.check_grouping` checks them: the covariates' layout with
    the first grouping up front, every grouping as it is averaged
    (:func:`hdte.data.column_group_means`), which reads the grouping's plan
    where a check has already derived it. A level whose averaged
    covariates are collinear raises :class:`NumericalError` when its problem
    is solved, as :func:`fit_weighted_enet` does on the aggregated dataset.
    """
    if levels is not None:
        levels = list(levels)
        if not levels:
            raise DataError("levels must contain at least one grouping")
        check_grouping(ds, levels[0])
    stacked = isinstance(rows, np.ndarray) and rows.ndim == 2
    row_sets = rows if stacked else [rows]
    base = np.stack([np.linalg.qr(_weighted_columns(ds, part)[0], mode="r") for part in row_sets])
    n = ds.n if row_sets[0] is None else len(row_sets[0])
    if levels is None:
        return (_LevelStack(base, n, ds.m, ds.p),)
    # Covariates share the outcomes' layout, so one call averages both
    # blocks of every factor, stacked one above the other.
    count, r, parts = base.shape[0], base.shape[1], 2 if ds.m else 1
    blocks = base[:, :, :-1].reshape(count, r, parts, ds.p).transpose(0, 2, 1, 3)
    stacks = []
    for grouping in levels:
        k = len(grouping)
        means = column_group_means(blocks.reshape(-1, ds.p), grouping)
        means = means.reshape(count, parts, r, k).transpose(0, 2, 1, 3).reshape(count, r, -1)
        factors = np.linalg.qr(np.concatenate([means, base[:, :, -1:]], axis=2), mode="r")
        stacks.append(_LevelStack(factors, n, k if ds.m else 0, k))
    return tuple(stacks) if stacked else tuple(s.problem(0) for s in stacks)
