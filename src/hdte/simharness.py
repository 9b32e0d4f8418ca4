"""Synthetic and semi-synthetic experiment drivers.

Two data sources: a linear outcome model with covariate-modulated effects
(without covariates, ``m = 0``, a pure shift on a few independent columns)
and a day-long glucose trace generator for time-in-range experiments. On
top of those sit replicated recovery, power, and semi-synthetic power
experiments, all seeded and reproducible. The three share one replicate
loop, which runs the replicates on every CPU it may use, averages each
method's results over the replicates it did not fail and counts those it
did.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .data import TrialDataset, aggregate_columns, check_seed, check_treatments
from .errors import DataError, HdteError
from .estimators import adjusted_estimate, check_estimator
from .forking import run_shared, share_count
from .inference import check_multi_split, hotelling_pvalue, multi_split, z_pvalues
from .selection import SelectionSpec, check_sizes, run_selection

__all__ = [
    "LinearModelConfig",
    "LinearModelGenerator",
    "TraceExperimentConfig",
    "ExperimentMetrics",
    "gen_glucose_traces",
    "apply_window_effect",
    "compute_tir",
    "window_level_groupings",
    "run_recovery_experiment",
    "run_power_experiment",
    "run_semisynth_experiment",
    "write_metrics_csv",
]


# ---------------------------------------------------------------------------
# linear outcome model


@dataclass(frozen=True)
class LinearModelConfig:
    """Settings for the linear outcome generator.

    Outcomes follow ``Y_ij = x_i' b_j + t_i * (alpha + x_i' d_j) * 1{j < s_tau}
    + eps_ij`` with standard normal covariates and noise, Bernoulli(``pi``)
    treatment, ``b_j`` entries uniform on [-1, 1] and ``d_j`` entries uniform
    on [0, 1]. The dataset holds all ``m`` covariates; at ``m = 0``, none,
    and ``Y_ij = alpha * t_i * 1{j < s_tau} + eps_ij`` is a pure mean shift.
    """

    n: int
    p: int
    m: int
    s_tau: int
    alpha: float
    pi: float
    seed: int

    def __post_init__(self):
        if self.n < 4:
            raise DataError(f"n must be >= 4, got {self.n}")
        if self.p < 1 or self.m < 0:
            raise DataError(f"need p >= 1 and m >= 0, got p={self.p}, m={self.m}")
        if not 0 <= self.s_tau <= self.p:
            raise DataError(f"s_tau must be in [0, p={self.p}], got {self.s_tau}")
        if not 0.0 < self.pi < 1.0:
            raise DataError(f"pi must be in (0, 1), got {self.pi}")


@dataclass(frozen=True)
class LinearModel:
    """Drawn coefficients of one linear-model instance."""

    config: LinearModelConfig
    beta: np.ndarray   # (p, m)
    delta: np.ndarray  # (p, m)

    def sample(self, rng: np.random.Generator, n: int | None = None
               ) -> tuple[TrialDataset, np.ndarray]:
        """Draw one dataset from this model. Draw order: covariates,
        treatments, noise. The outcome matrix is built in place, the noise
        added by :func:`_add_noise`, and handed to the dataset read-only,
        so it is held once."""
        cfg = self.config
        n = cfg.n if n is None else n
        x = rng.standard_normal((n, cfg.m))
        t = (rng.random(n) < cfg.pi).astype(np.int64)
        y = x @ self.beta.T if cfg.m else np.zeros((n, cfg.p))
        if cfg.s_tau:
            lift = np.full((n, cfg.s_tau), cfg.alpha)
            if cfg.m:
                lift = lift + x @ self.delta[: cfg.s_tau].T
            y[:, : cfg.s_tau] += t[:, None] * lift
        _add_noise(rng, y)
        y.setflags(write=False)
        return TrialDataset(t, y, x if cfg.m else None), np.arange(cfg.s_tau)


# Rows of noise are drawn into one reused buffer of about this many bytes
# (at least one row). At 500 x 4000 the generator's traced peak is 1.17
# times its output, against 3.04 with a whole noise matrix and a copy.
_NOISE_CHUNK_BYTES = 2 << 20


def _add_noise(rng: np.random.Generator, y: np.ndarray) -> None:
    """``y += rng.standard_normal(y.shape)`` in place, a chunk of rows at a
    time. Successive draws continue the stream, so the bits are those of
    one draw."""
    n, p = y.shape
    rows = max(1, _NOISE_CHUNK_BYTES // (8 * p))
    buffer = np.empty((min(rows, n), p))
    for lo in range(0, n, rows):
        chunk = buffer[:min(rows, n - lo)]
        rng.standard_normal(out=chunk)
        y[lo:lo + chunk.shape[0]] += chunk


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with an int ``seed`` held to the seed
    rule (:func:`hdte.data.check_seed`) first; the ``SeedSequence``
    children that the experiments pass go straight through."""
    if isinstance(seed, (int, np.integer)):
        check_seed(seed)
    return np.random.default_rng(seed)


def draw_linear_model(config: LinearModelConfig, rng: np.random.Generator) -> LinearModel:
    """Draw model coefficients. Draw order: slope matrix, then effect slopes."""
    beta = rng.uniform(-1.0, 1.0, (config.p, config.m))
    delta = rng.uniform(0.0, 1.0, (config.p, config.m))
    return LinearModel(config, beta, delta)


@dataclass(frozen=True)
class LinearModelGenerator:
    """Replicate factory: fresh coefficients and data per replicate seed."""

    config: LinearModelConfig

    @property
    def p(self) -> int:
        return self.config.p

    def replicate(self, seed) -> tuple[TrialDataset, np.ndarray]:
        rng = _rng(seed)
        return draw_linear_model(self.config, rng).sample(rng)

    def replicate_pair(self, seed, n_second: int
                       ) -> tuple[TrialDataset, TrialDataset, np.ndarray]:
        """Two datasets sharing one coefficient draw (selection set, then an
        independent evaluation set from the same model)."""
        rng = _rng(seed)
        model = draw_linear_model(self.config, rng)
        ds1, s_true = model.sample(rng)
        ds2, _ = model.sample(rng, n_second)
        return ds1, ds2, s_true


# ---------------------------------------------------------------------------
# glucose traces and time-in-range

# Trace shape constants: baseline spread across units, a week-specific level
# shift, three meal excursions, and smooth autocorrelated noise partially
# shared between the two weeks. Chosen so week-over-week time-in-range
# correlation lands near 0.6.
_BASE_MEAN = 135.0
_BASE_SD = 20.0
_WEEK_LEVEL_SD = 13.0
_MEAL_MINUTES = (450.0, 750.0, 1110.0)      # 07:30, 12:30, 18:30
_MEAL_SD_MINUTES = (40.0, 50.0, 45.0)
_MEAL_AMP_MEAN = 55.0
_MEAL_AMP_SD = 18.0
_MEAL_WEEK_JITTER = 8.0
_NOISE_PHI = 0.9
_NOISE_SD = 16.0
_NOISE_SHARED_FRAC = 0.5
_TRACE_CLIP = (40.0, 400.0)
_AR_BURN_IN = 60

# The experiment's fixed design: a day of 288 points (5 minutes apart), a
# 120-minute effect window and the 70-180 mg/dL target range.
_POINTS_PER_DAY = 288
_EFFECT_MINUTES = 120
_GLUCOSE_RANGE = (70.0, 180.0)


@dataclass(frozen=True)
class TraceExperimentConfig:
    """Settings for the semi-synthetic time-in-range experiment.

    Traces cover one day on the fixed ``_POINTS_PER_DAY`` grid, two weeks
    per unit: week 1 supplies covariates, week 2 outcomes. The treatment
    subtracts ``effect_magnitude`` from week-2 glucose inside a random
    grid-aligned interval of ``_EFFECT_MINUTES``.
    """

    n: int
    effect_magnitude: float
    seed: int
    level_window_minutes: tuple[int, ...] = (240, 120, 60)

    def __post_init__(self):
        if self.n < 4:
            raise DataError(f"n must be >= 4, got {self.n}")
        window_level_groupings(self.level_window_minutes)
        step = 1440 // _POINTS_PER_DAY
        misaligned = [w for w in self.level_window_minutes if w % step]
        if misaligned:
            raise DataError(f"windows of {misaligned} minutes do not align to the "
                            f"{step}-minute grid")


def _ar_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Smooth noise of ``shape`` with unit marginal variance along its last
    axis: ``y[t] = x[t] + phi * y[t - 1]`` on white noise drawn in
    ``shape``'s order, run in place along the draw's last axis, one numpy
    step per time point, the bits of ``scipy.signal.lfilter([1], [1, -phi],
    x)``. The result is a view that skips the burn-in."""
    white = rng.standard_normal(shape[:-1] + (shape[-1] + _AR_BURN_IN,))
    white *= np.sqrt(1.0 - _NOISE_PHI**2)
    steps = np.moveaxis(white, -1, 0)
    for prev, step in zip(steps, steps[1:]):
        step += _NOISE_PHI * prev
    return white[..., _AR_BURN_IN:]


# Units per trace chunk; each runs an AR(1) loop of about 350 numpy steps.
# On 2 vCPUs (n=1000, 288 points, 300 paired runs) a replicate's dataset took
# 0.7 ms less than from one (2, n, points) buffer (39 ms) in 200-unit chunks
# and 1.7 ms more in 125-unit ones; its traced peak fell from 15.5 to 7.3 MB.
_CHUNK_UNITS = 200


def _trace_chunks(rng: np.random.Generator, n: int):
    """Yields ``(rows, traces)``: the units ``rows`` (a slice of at most
    ``_CHUNK_UNITS``) and their weeks, ``(2, k, _POINTS_PER_DAY)`` in one reused
    buffer that the caller reduces or copies before the next chunk. Each
    week is summed in place as ``(base + meals) + noise`` with the noise
    ``SD * (sqrt(f) * shared + sqrt(1 - f) * weekly)`` and clipped. The
    weekly noise is drawn chunk by chunk after all units' other draws, and
    successive draws continue the stream, so the chunk size keeps the bits."""
    points = _POINTS_PER_DAY
    minutes = np.arange(points) * (1440.0 / points)
    base = rng.normal(_BASE_MEAN, _BASE_SD, (n, 1))
    base = base + rng.normal(0.0, _WEEK_LEVEL_SD, (n, 2))
    amp_unit = np.maximum(rng.normal(_MEAL_AMP_MEAN, _MEAL_AMP_SD, (n, 3)), 0.0)
    amp = np.maximum(
        amp_unit[:, :, None] + rng.normal(0.0, _MEAL_WEEK_JITTER, (n, 3, 2)), 0.0
    )
    shapes = [np.exp(-0.5 * ((minutes - mid) / sd) ** 2)
              for mid, sd in zip(_MEAL_MINUTES, _MEAL_SD_MINUTES)]
    shared = _ar_noise(rng, (n, points))
    shared *= np.sqrt(_NOISE_SHARED_FRAC)
    buffer = np.empty((2, min(n, _CHUNK_UNITS), points))
    meal = np.empty(buffer.shape[1:])
    for start in range(0, n, _CHUNK_UNITS):
        rows = slice(start, min(start + _CHUNK_UNITS, n))
        k = rows.stop - start
        weekly = _ar_noise(rng, (2 * k, points)).reshape(k, 2, points)
        weekly *= np.sqrt(1.0 - _NOISE_SHARED_FRAC)
        weekly += shared[rows, None]
        weekly *= _NOISE_SD
        traces = buffer[:, :k]
        for w, week in enumerate(traces):
            np.multiply(amp[rows, 0, w, None], shapes[0], out=week)
            for j in (1, 2):
                week += np.multiply(amp[rows, j, w, None], shapes[j], out=meal[:k])
            week += base[rows, w, None]
            week += weekly[:, w]
        yield rows, np.clip(traces, *_TRACE_CLIP, out=traces)


def gen_glucose_traces(config: TraceExperimentConfig) -> np.ndarray:
    """Two weeks of day-averaged glucose traces, shape ``(n, 288, 2)``.

    Week-over-week structure (baseline level, meal amplitudes, and half the
    noise variance are shared within a unit) gives day-level time-in-range a
    correlation of roughly 0.6 between the weeks. Values are clipped to the
    physiological range [40, 400].
    """
    rng = _rng(config.seed)
    traces = np.empty((config.n, _POINTS_PER_DAY, 2))
    for rows, chunk in _trace_chunks(rng, config.n):
        traces[rows] = chunk.transpose(1, 2, 0)
    return traces


def apply_window_effect(traces: np.ndarray, interval: tuple[int, int],
                        magnitude: float, treatments) -> np.ndarray:
    """Subtract ``magnitude`` from treated units' week-2 glucose inside
    ``interval`` (minutes, half-open, grid-aligned). Returns a new array."""
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 3 or traces.shape[2] != 2:
        raise DataError(f"traces must be (n, points, 2), got shape {traces.shape}")
    points = traces.shape[1]
    step = 1440 // points
    start, end = interval
    if not 0 <= start < end <= 1440:
        raise DataError(f"interval must satisfy 0 <= start < end <= 1440, got {interval}")
    if start % step or end % step:
        raise DataError(f"interval {interval} is not aligned to the {step}-minute grid")
    t = np.asarray(treatments)
    if t.shape != (traces.shape[0],):
        raise DataError(
            f"treatments shape {t.shape} does not match {traces.shape[0]} traces"
        )
    treated = check_treatments(t) == 1.0
    out = traces.copy()
    out[treated, start // step : end // step, 1] -= magnitude
    return out


def _window_means(in_range: np.ndarray, window_minutes: int) -> np.ndarray:
    """The share of true entries in each window along the last axis; a count
    of 0/1 values is exact, so this has the bits of their float mean."""
    points = in_range.shape[-1]
    if window_minutes <= 0 or 1440 % window_minutes != 0:
        raise DataError(f"window of {window_minutes} minutes must divide the day")
    n_windows = 1440 // window_minutes
    if points % n_windows != 0:
        raise DataError(
            f"{points} points per day cannot split into {n_windows} equal windows"
        )
    width = points // n_windows
    return in_range.reshape(in_range.shape[:-1] + (n_windows, width)).sum(axis=-1) / width


def compute_tir(trace, window_minutes: int) -> np.ndarray:
    """Fraction of readings inside ``_GLUCOSE_RANGE`` (inclusive) per window.

    ``trace`` has day points along its last axis; the result replaces that
    axis with one entry per ``window_minutes`` window.
    """
    arr = np.asarray(trace, dtype=np.float64)
    lo, hi = _GLUCOSE_RANGE
    return _window_means((arr >= lo) & (arr <= hi), window_minutes)


def window_level_groupings(level_window_minutes) -> list[tuple[tuple[int, ...], ...]]:
    """Column groupings of the finest-window layout, one per level.

    The base columns are the windows of the finest (smallest) duration; a
    coarser level's window averages its consecutive base windows. Levels are
    returned in the order given (list coarsest first for downstream
    tie-breaking)."""
    durations = tuple(level_window_minutes)
    if not durations:
        raise DataError("need at least one window level")
    finest = min(durations)
    if finest <= 0:
        raise DataError(f"window durations must be positive, got {durations}")
    levels = []
    for d in durations:
        if d % finest != 0 or 1440 % d != 0:
            raise DataError(
                f"window of {d} minutes must divide the day and be a multiple "
                f"of the finest level ({finest} minutes)"
            )
        factor = d // finest
        levels.append(tuple(
            tuple(range(k * factor, (k + 1) * factor)) for k in range(1440 // d)
        ))
    return levels


# ---------------------------------------------------------------------------
# replicated experiments


# The level of every test whose rejection the power experiments count.
_ALPHA = 0.05


@dataclass(frozen=True)
class ExperimentMetrics:
    """Aggregated results of one method over replicates. Failed replicates
    are excluded from the averages and counted in ``failures``."""

    method: str
    replicates: int
    failures: int = 0
    recovery_rate_by_size: dict[int, float] | None = None
    power_by_size: dict[int, float] | None = None
    power: float | None = None


def _builtin_selection(method: str, sizes, estimator: str) -> tuple[SelectionSpec, str]:
    """Spec and estimator of a built-in experiment method; ``"baseline_dim"``
    is the baseline ranked without adjustment. Raises ``DataError`` for an
    unknown name."""
    if method == "baseline_dim":
        method, estimator = "baseline", "dim"
    return SelectionSpec(method, size=sizes[-1]), estimator


def _check_experiment(generator, methods, sizes, estimator: str) -> tuple[dict, tuple]:
    """The methods by result key (a built-in's name, a callable's
    ``__name__``) and the sizes checked against the generator's ``p`` by
    :func:`hdte.selection.check_sizes`, after checking that there is a
    method and that ``estimator`` and every built-in name are known: a
    mistake in the call is an error, not a failure in every replicate."""
    sizes = tuple(check_sizes(sizes, generator.p))
    if not methods:
        raise DataError("an experiment needs at least one method")
    check_estimator(None, estimator)
    for method in methods:
        if not callable(method):
            _builtin_selection(method, sizes, estimator)
    keys = [method if isinstance(method, str) else getattr(method, "__name__", f"custom{k}")
            for k, method in enumerate(methods)]
    return dict(zip(keys, methods)), sizes


def _subsets_by_size(ds: TrialDataset, method, sizes, estimator: str
                     ) -> dict[int, tuple[int, ...]]:
    """Selected subsets per size for one experiment method on one dataset:
    a custom callable per size, a built-in through :func:`run_selection`."""
    if callable(method):
        return {s: tuple(int(j) for j in method(ds, s)) for s in sizes}
    spec, estimator = _builtin_selection(method, sizes, estimator)
    results, _ = run_selection(ds, spec, estimator, sizes)
    return {s: result.selected for s, result in zip(sizes, results)}


def _outcomes(tasks: dict, evaluate: Callable) -> dict[str, dict | None]:
    """``{key: evaluate(item)}`` over one replicate's methods or arms, with
    ``None`` where the evaluation raises an :class:`HdteError`: a failed
    replicate of that key, counted by :func:`_run_experiment`, not fatal."""
    out = {}
    for key, item in tasks.items():
        try:
            out[key] = evaluate(item)
        except HdteError:
            out[key] = None
    return out


def _recovery_replicate(generator, methods, sizes, estimator, child):
    ds, s_true = generator.replicate(child)
    truth = set(int(j) for j in s_true)

    def recovery(method):
        picks = _subsets_by_size(ds, method, sizes, estimator)
        return {s: len(truth & set(sel)) / s for s, sel in picks.items()}
    return _outcomes(methods, recovery)


def _power_replicate(generator, methods, sizes, estimator, n_second, child):
    ds1, ds2, _ = generator.replicate_pair(child, n_second)
    test_estimator = ds2.usable_estimator("lin")

    def rejections(method):
        picks = _subsets_by_size(ds1, method, sizes, estimator)
        return {s: float(hotelling_pvalue(adjusted_estimate(ds2, test_estimator, sel))
                         <= _ALPHA)
                for s, sel in picks.items()}
    return _outcomes(methods, rejections)


def _run_experiment(replicate: Callable, keys, replicates: int,
                    seed: int) -> dict[str, tuple[dict | None, int]]:
    """Run ``replicate(child)`` once per replicate, each ``child`` spawned
    from ``SeedSequence(seed)``. Per key of ``keys``: the entrywise mean of
    its maps over the replicates in which it did not fail (``None`` if it
    failed in all), and the number in which it failed. ``replicates`` under
    1 and a negative ``seed`` (:func:`hdte.data.check_seed`) are a
    :class:`DataError`, raised before the first replicate.

    The replicates are shared, replicate ``r`` in share ``r mod k``, among
    the ``k`` processes :func:`hdte.forking.share_count` allows (one per
    CPU, in a process that runs one thread); a shared replicate's
    multi-split runs its splits serially. Only results cross processes, so
    a method may be any callable, a lambda among them. The means are the
    serial ones bit for bit: they are taken here in replicate order."""
    if replicates < 1:
        raise DataError(f"replicates must be >= 1, got {replicates}")
    check_seed(seed)
    children = np.random.SeedSequence(seed).spawn(replicates)
    raw = run_shared(replicates, share_count(replicates),
                     lambda share: [replicate(children[r]) for r in share])
    out = {}
    for key in keys:
        rows = [r[key] for r in raw if r[key] is not None]
        means = ({entry: float(np.mean([r[entry] for r in rows])) for entry in rows[0]}
                 if rows else None)
        out[key] = means, replicates - len(rows)
    return out


def run_recovery_experiment(generator, methods, sizes, replicates: int, seed: int, *,
                            estimator: str = "cuped") -> dict[str, ExperimentMetrics]:
    """Mean recovery rate ``|selected ∩ true| / s`` per method and size.

    ``methods`` mixes the built-ins (``"baseline"``, ``"baseline_dim"``,
    ``"lasso"``, ``"enet"``) with custom callables ``(dataset, size) ->
    indices``. ``estimator`` sets the covariate adjustment used by the
    baseline ranking when covariates are present. Replicate seeds derive from
    ``seed``; a failed replicate is skipped and counted, not fatal.
    """
    methods, sizes = _check_experiment(generator, methods, sizes, estimator)
    results = _run_experiment(partial(_recovery_replicate, generator, methods, sizes, estimator),
                              methods, replicates, seed)
    return {key: ExperimentMetrics(key, replicates, failures, recovery_rate_by_size=means)
            for key, (means, failures) in results.items()}


def run_power_experiment(generator, methods, sizes, replicates: int, seed: int, *,
                         second_sample_size: int = 500,
                         estimator: str = "cuped") -> dict[str, ExperimentMetrics]:
    """Rejection frequency of the group test at level 0.05 per method and
    size.

    Each replicate draws a selection dataset and an independent evaluation
    dataset of ``second_sample_size`` rows from the same coefficient draw;
    selection happens on the first, the quadratic-form test on the second
    restricted to the selected columns, by ``"lin"``, or ``"dim"`` where the
    second has no covariates (:meth:`hdte.data.TrialDataset.usable_estimator`).
    A ``second_sample_size`` under 4, the least ``LinearModelConfig.n``, is a
    :class:`DataError` raised before the first replicate.
    """
    if second_sample_size < 4:
        raise DataError(f"second_sample_size must be >= 4, got {second_sample_size}")
    methods, sizes = _check_experiment(generator, methods, sizes, estimator)
    results = _run_experiment(partial(_power_replicate, generator, methods, sizes, estimator,
                                      second_sample_size),
                              methods, replicates, seed)
    return {key: ExperimentMetrics(key, replicates, failures, power_by_size=means)
            for key, (means, failures) in results.items()}


def _semisynth_arms(config: TraceExperimentConfig) -> dict[str, tuple | None]:
    """Each arm's name and its window grouping: ``fixed_<d>min`` for every
    level but the finest (the proposed method's territory, unless it is the
    only level), then ``proposed``, which selects among all levels."""
    levels = config.level_window_minutes
    finest = min(levels)
    arms = {f"fixed_{d}min": grouping
            for d, grouping in zip(levels, window_level_groupings(levels))
            if d != finest or len(levels) == 1}
    arms["proposed"] = None
    return arms


def _semisynth_replicate(config, B, gamma, sel, estimator, child):
    rng = np.random.default_rng(child)
    n, points = config.n, _POINTS_PER_DAY
    finest = min(config.level_window_minutes)
    lo, hi = _GLUCOSE_RANGE
    covariates = np.empty((n, 1440 // finest))
    # Week 2 in range as drawn and less the effect, as apply_window_effect
    # subtracts it: the treatments and the window are drawn after the traces.
    untreated, treated = np.empty((2, n, points), dtype=bool)
    for rows, (week1, week2) in _trace_chunks(rng, n):
        covariates[rows] = compute_tir(week1, finest)
        np.logical_and(week2 >= lo, week2 <= hi, out=untreated[rows])
        week2 -= config.effect_magnitude
        np.logical_and(week2 >= lo, week2 <= hi, out=treated[rows])
    t = (rng.random(n) < 0.5).astype(np.int64)
    step = 1440 // points
    first = int(rng.integers(0, (1440 - _EFFECT_MINUTES) // step + 1))
    window = slice(first, first + _EFFECT_MINUTES // step)
    untreated[t == 1, window] = treated[t == 1, window]
    ds = TrialDataset(t, _window_means(untreated, finest), covariates)
    multi_split_seed = int(rng.integers(2**31))

    def rejection(grouping):
        """Whether an arm rejects, as a map of one entry (key ``None``): the
        fixed-window test on ``grouping``, or the proposed pipeline for ``None``."""
        if grouping is None:
            p = multi_split(ds, B=B, gamma=gamma, method=estimator, sel=sel,
                            seed=multi_split_seed).group_aggregated
        else:
            level_ds = aggregate_columns(ds, grouping)
            est = adjusted_estimate(level_ds, estimator)
            p = float(z_pvalues(est, correction=level_ds.p, two_sided=True).min())
        return {None: float(p <= _ALPHA)}
    return _outcomes(_semisynth_arms(config), rejection)


def run_semisynth_experiment(config: TraceExperimentConfig, replicates: int,
                             seed: int, *, B: int = 20, gamma: float = 0.05,
                             select_size: int = 1,
                             estimator: str = "lin") -> dict[str, ExperimentMetrics]:
    """Rejection frequency of fixed-window testing versus the
    multi-resolution split pipeline on glucose traces.

    Per replicate: generate traces, randomize treatment (Bernoulli 1/2),
    plant the effect in a random grid-aligned interval, build time-in-range
    outcome and covariate matrices at the finest level, then run (a)
    fixed-window multiplicity-corrected per-window tests at every coarser
    level on the full sample and (b) the multi-resolution multi-split
    pipeline. Week 1 supplies covariates for adjustment throughout. Either
    rejects at level 0.05. The pipeline's ``B``, ``gamma``, ``estimator``
    and ``select_size`` (against the coarsest level's windows) are checked
    before the first replicate (:func:`hdte.inference.check_multi_split`).
    """
    sel = SelectionSpec(method="lasso", size=select_size,
                        levels=window_level_groupings(config.level_window_minutes))
    check_multi_split(B, gamma, estimator, sel)
    results = _run_experiment(partial(_semisynth_replicate, config, B, gamma, sel, estimator),
                              _semisynth_arms(config), replicates, seed)
    return {name: ExperimentMetrics(name, replicates, failures,
                                    power=None if means is None else means[None])
            for name, (means, failures) in results.items()}


def write_metrics_csv(results: dict[str, ExperimentMetrics], path) -> None:
    """Long-format CSV: one row per method, size, and metric. A method that
    failed in every replicate has no metric and gets one row with size,
    metric and value empty, so its failure count is written too."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "size", "metric", "value", "replicates", "failures"])
        for key, metrics in results.items():
            rows = [[s, label, repr(float(by_size[s]))]
                    for label, by_size in (("recovery_rate", metrics.recovery_rate_by_size),
                                           ("power", metrics.power_by_size))
                    if by_size is not None for s in sorted(by_size)]
            if metrics.power is not None:
                rows.append(["", "power", repr(float(metrics.power))])
            for row in rows or [["", "", ""]]:
                writer.writerow([key, *row, metrics.replicates, metrics.failures])
