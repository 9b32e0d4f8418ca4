import os

import numpy as np
import pytest
from scipy.signal import lfilter

from hdte import simharness as sh
from hdte.errors import DataError
from hdte.simharness import (
    _AR_BURN_IN,
    _NOISE_PHI,
    _ar_noise,
    ExperimentMetrics,
    LinearModelConfig,
    LinearModelGenerator,
    TraceExperimentConfig,
    apply_window_effect,
    compute_tir,
    draw_linear_model,
    gen_glucose_traces,
    run_power_experiment,
    run_recovery_experiment,
    run_semisynth_experiment,
    window_level_groupings,
    write_metrics_csv,
)

from conftest import split_route, traced_peak


def pick_first(ds, size):
    return tuple(range(size))


def always_fails(ds, size):
    raise DataError("nope")


def test_linear_model_shapes_and_determinism():
    cfg = LinearModelConfig(n=50, p=7, m=3, s_tau=2, alpha=1.0, pi=0.5, seed=11)
    ds, s_true = LinearModelGenerator(cfg).replicate(11)
    assert ds.n == 50 and ds.p == 7 and ds.m == 3
    np.testing.assert_array_equal(s_true, [0, 1])
    assert set(np.unique(ds.treatments)) <= {0, 1}
    ds2, _ = LinearModelGenerator(cfg).replicate(11)
    np.testing.assert_array_equal(ds.outcomes, ds2.outcomes)
    np.testing.assert_array_equal(ds.covariates, ds2.covariates)


def test_linear_model_effect_magnitude():
    """With m = 0 the treated-minus-control gap on affected columns is alpha."""
    cfg = LinearModelConfig(n=4000, p=3, m=0, s_tau=2, alpha=4.0, pi=0.5, seed=0)
    ds, _ = LinearModelGenerator(cfg).replicate(0)
    t = ds.treatments.astype(bool)
    gaps = ds.outcomes[t].mean(axis=0) - ds.outcomes[~t].mean(axis=0)
    assert gaps[0] == pytest.approx(4.0, abs=0.2)
    assert gaps[1] == pytest.approx(4.0, abs=0.2)
    assert gaps[2] == pytest.approx(0.0, abs=0.2)
    assert ds.treatments.mean() == pytest.approx(0.5, abs=0.05)


def test_replicate_pair_shares_the_coefficient_draw():
    cfg = LinearModelConfig(n=30, p=5, m=2, s_tau=2, alpha=1.0, pi=0.5, seed=0)
    gen = LinearModelGenerator(cfg)
    ds1, ds2, s_true = gen.replicate_pair(7, n_second=20)
    single, _ = gen.replicate(7)
    np.testing.assert_array_equal(ds1.outcomes, single.outcomes)
    # reconstruct the rng stream to pin the second sample to the same model
    rng = np.random.default_rng(7)
    model = draw_linear_model(cfg, rng)
    model.sample(rng)
    expect2, _ = model.sample(rng, 20)
    np.testing.assert_array_equal(ds2.outcomes, expect2.outcomes)
    assert ds2.n == 20


@pytest.mark.parametrize("generator", [
    LinearModelGenerator(LinearModelConfig(n=30, p=5, m=2, s_tau=2, alpha=1.0,
                                           pi=0.5, seed=0)),
    LinearModelGenerator(LinearModelConfig(n=30, p=5, m=0, s_tau=2, alpha=1.0,
                                           pi=0.5, seed=0)),
])
def test_replicate_pair_starts_with_the_replicate(generator):
    first, second, s_true = generator.replicate_pair(13, n_second=17)
    single, s_single = generator.replicate(13)
    assert first.treatments.tobytes() == single.treatments.tobytes()
    assert first.outcomes.tobytes() == single.outcomes.tobytes()
    assert (first.covariates is None) == (single.covariates is None)
    if first.covariates is not None:
        assert first.covariates.tobytes() == single.covariates.tobytes()
    np.testing.assert_array_equal(s_true, s_single)
    assert second.n == 17


def _reference_sample(model, rng, n):
    """``LinearModel.sample``'s formula as first written: the whole noise
    matrix drawn at once, added to outcomes formed as new arrays. Returns the
    treatments, outcomes and covariates."""
    cfg = model.config
    x = rng.standard_normal((n, cfg.m))
    t = (rng.random(n) < cfg.pi).astype(np.int64)
    eps = rng.standard_normal((n, cfg.p))
    y = x @ model.beta.T if cfg.m else np.zeros((n, cfg.p))
    if cfg.s_tau:
        lift = np.full((n, cfg.s_tau), cfg.alpha)
        if cfg.m:
            lift = lift + x @ model.delta[: cfg.s_tau].T
        y[:, : cfg.s_tau] += t[:, None] * lift
    y = y + eps
    return t, y, x if cfg.m else None


def _same_bits(ds, reference):
    t, y, x = reference
    assert ds.treatments.tobytes() == t.tobytes()
    assert ds.outcomes.shape == y.shape and ds.outcomes.tobytes() == y.tobytes()
    assert (ds.covariates is None) == (x is None)
    if x is not None:
        assert ds.covariates.tobytes() == np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("chunk_bytes", [
    None,           # the default 2 MiB: 1000 rows of 600 columns take three chunks
    3 * 4800 + 7,   # 3 rows of 600 columns; neither n = 1000 nor 77 is a multiple of 3
    2400,           # less than a row: one row per chunk
])
@pytest.mark.parametrize("m, s_tau", [(0, 0), (0, 4), (5, 0), (5, 4)])
def test_linear_model_is_the_reference_formula_bit_for_bit(monkeypatch, chunk_bytes,
                                                           m, s_tau):
    """Outcomes built in place, the noise added a chunk of rows at a time,
    keep the one-shot formula's draws and bits, for a replicate and for
    both datasets of a pair."""
    cfg = LinearModelConfig(n=1000, p=600, m=m, s_tau=s_tau, alpha=0.7, pi=0.4, seed=0)
    if chunk_bytes is not None:
        monkeypatch.setattr(sh, "_NOISE_CHUNK_BYTES", chunk_bytes)
    gen = LinearModelGenerator(cfg)
    for seed in (0, 3):
        ds, _ = gen.replicate(seed)
        rng = np.random.default_rng(seed)
        _same_bits(ds, _reference_sample(draw_linear_model(cfg, rng), rng, cfg.n))
        first, second, _ = gen.replicate_pair(seed, 77)
        rng = np.random.default_rng(seed)
        model = draw_linear_model(cfg, rng)
        _same_bits(first, _reference_sample(model, rng, cfg.n))
        _same_bits(second, _reference_sample(model, rng, 77))


def test_the_linear_model_holds_its_outcomes_once():
    """A 500 x 4000 replicate peaks at most 1.3 times its output (1.17: the
    outcomes, a 2 MiB noise buffer and the covariates), where a whole noise
    matrix and the dataset's copy took 3.04; the dataset keeps the
    generator's matrix."""
    gen = LinearModelGenerator(LinearModelConfig(n=500, p=4000, m=10, s_tau=5, alpha=0.5,
                                                 pi=0.5, seed=0))
    (ds, _), peak = traced_peak(lambda: gen.replicate(0))
    assert ds.outcomes.flags.owndata and not ds.outcomes.flags.writeable
    assert peak <= 1.3 * (ds.outcomes.nbytes + ds.covariates.nbytes + ds.treatments.nbytes)


def test_linear_model_config_validation():
    with pytest.raises(DataError, match="n must be"):
        LinearModelConfig(n=3, p=2, m=0, s_tau=1, alpha=1.0, pi=0.5, seed=0)
    with pytest.raises(DataError, match="need p >= 1 and m >= 0, got p=0, m=0"):
        LinearModelConfig(n=10, p=0, m=0, s_tau=0, alpha=1.0, pi=0.5, seed=0)
    with pytest.raises(DataError, match="need p >= 1 and m >= 0, got p=2, m=-1"):
        LinearModelConfig(n=10, p=2, m=-1, s_tau=1, alpha=1.0, pi=0.5, seed=0)
    with pytest.raises(DataError, match="s_tau"):
        LinearModelConfig(n=10, p=2, m=0, s_tau=3, alpha=1.0, pi=0.5, seed=0)
    with pytest.raises(DataError, match="pi"):
        LinearModelConfig(n=10, p=2, m=0, s_tau=1, alpha=1.0, pi=1.0, seed=0)


def test_glucose_traces_shape_and_range():
    config = TraceExperimentConfig(n=40, effect_magnitude=10.0, seed=8)
    traces = gen_glucose_traces(config)
    assert traces.shape == (40, 288, 2)
    assert traces.min() >= 40.0 and traces.max() <= 400.0
    np.testing.assert_array_equal(traces, gen_glucose_traces(config))


def test_glucose_week_over_week_structure():
    """Day-level time-in-range should correlate across the two weeks without
    being a copy."""
    config = TraceExperimentConfig(n=600, effect_magnitude=0.0, seed=5)
    traces = gen_glucose_traces(config)
    tir1 = compute_tir(traces[:, :, 0], 1440)[:, 0]
    tir2 = compute_tir(traces[:, :, 1], 1440)[:, 0]
    corr = np.corrcoef(tir1, tir2)[0, 1]
    assert 0.45 < corr < 0.75
    assert 0.70 < tir1.mean() < 0.90


def _lfilter_noise(rng, shape):
    """AR(1) noise along the last axis of ``shape`` by ``lfilter``."""
    white = rng.standard_normal(shape[:-1] + (shape[-1] + _AR_BURN_IN,)) \
        * np.sqrt(1.0 - _NOISE_PHI**2)
    return lfilter([1.0], [1.0, -_NOISE_PHI], white, axis=-1)[..., _AR_BURN_IN:]


@pytest.mark.parametrize("shape", [(50, 288), (20, 2, 288), (7, 5)])
def test_ar_noise_is_the_lfilter_recurrence_bit_for_bit(shape):
    """The numpy AR(1) recurrence gives the bits of ``lfilter`` on the same
    white noise, in ``shape``, in place in the draw."""
    for seed in range(3):
        got = _ar_noise(np.random.default_rng(seed), shape)
        want = _lfilter_noise(np.random.default_rng(seed), shape)
        assert got.shape == shape and got.base.shape == shape[:-1] + (shape[-1] + _AR_BURN_IN,)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _reference_traces(config, rng=None):
    """The trace formula as first written: each noise array laid out unit by
    unit, and the sums formed as new arrays."""
    rng = np.random.default_rng(config.seed) if rng is None else rng
    n, points = config.n, sh._POINTS_PER_DAY
    minutes = np.arange(points) * (1440.0 / points)
    base = rng.normal(sh._BASE_MEAN, sh._BASE_SD, (n, 1, 1))
    base = base + rng.normal(0.0, sh._WEEK_LEVEL_SD, (n, 1, 2))
    amp_unit = np.maximum(rng.normal(sh._MEAL_AMP_MEAN, sh._MEAL_AMP_SD, (n, 3)), 0.0)
    amp = np.maximum(amp_unit[:, :, None] + rng.normal(0.0, sh._MEAL_WEEK_JITTER, (n, 3, 2)),
                     0.0)
    shapes = np.stack([np.exp(-0.5 * ((minutes - mid) / sd) ** 2)
                       for mid, sd in zip(sh._MEAL_MINUTES, sh._MEAL_SD_MINUTES)])
    bumps = np.einsum("nkw,kp->npw", amp, shapes)
    shared = _lfilter_noise(rng, (n, points))
    weekly = _lfilter_noise(rng, (n, 2, points)).transpose(0, 2, 1)
    noise = sh._NOISE_SD * (np.sqrt(sh._NOISE_SHARED_FRAC) * shared[:, :, None]
                            + np.sqrt(1.0 - sh._NOISE_SHARED_FRAC) * weekly)
    return np.clip(base + bumps + noise, *sh._TRACE_CLIP)


# Less than one chunk of units, and several chunks with a short last one.
_TRACE_UNITS = [30, 2 * sh._CHUNK_UNITS + 7]


@pytest.mark.parametrize("n", _TRACE_UNITS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_glucose_traces_are_the_reference_formula_bit_for_bit(seed, n):
    """Traces built chunk by chunk and in place keep the reference's random
    draws in order and its bits, C-ordered."""
    config = TraceExperimentConfig(n=n, effect_magnitude=5.0, seed=seed)
    got = gen_glucose_traces(config)
    assert got.flags.c_contiguous and got.shape == (n, 288, 2)
    assert got.tobytes() == _reference_traces(config).tobytes()


class _Tested(Exception):
    """Carries the dataset a replicate's first arm aggregates."""


def _first_dataset(monkeypatch, config, child):
    """The dataset a replicate's first arm aggregates: the first arm raises,
    so the proposed arm's spec is never read."""
    def first_arm(ds, grouping):
        raise _Tested(ds)

    monkeypatch.setattr(sh, "aggregate_columns", first_arm)
    with pytest.raises(_Tested) as tested:
        sh._semisynth_replicate(config, 4, 0.25, None, "dim", child)
    return tested.value.args[0]


@pytest.mark.parametrize("n", _TRACE_UNITS)
def test_a_semisynth_replicate_tests_the_reference_dataset(monkeypatch, n):
    """A replicate's chunked traces, reduced chunk by chunk to week 1's time
    in range and week 2's in-range masks with and without the effect, give
    the dataset of the reference traces after apply_window_effect, bit for
    bit: treatments, week-2 outcomes and week-1 covariates."""
    config = TraceExperimentConfig(n=n, effect_magnitude=30.0, seed=0)
    for child in np.random.SeedSequence(3).spawn(4):
        got = _first_dataset(monkeypatch, config, child)
        rng = np.random.default_rng(child)
        traces = _reference_traces(config, rng)
        t = (rng.random(config.n) < 0.5).astype(np.int64)
        start = int(rng.integers(0, (1440 - 120) // 5 + 1)) * 5
        traces = apply_window_effect(traces, (start, start + 120), 30.0, t)
        assert got.treatments.tobytes() == t.tobytes()
        assert got.outcomes.tobytes() == compute_tir(traces[:, :, 1], 60).tobytes()
        assert got.covariates.tobytes() == compute_tir(traces[:, :, 0], 60).tobytes()


def test_a_replicate_and_the_trace_generator_hold_a_chunk_of_traces(monkeypatch):
    """Traces are built a chunk of units at a time: a replicate's dataset at
    n=4000 peaks below 2.5 doubles per unit and day point (6.7 when it held
    both weeks at once), and the generator below twice its output (3.3)."""
    config = TraceExperimentConfig(n=4000, effect_magnitude=11.0, seed=0)
    child = np.random.SeedSequence(1).spawn(1)[0]
    ds, peak = traced_peak(lambda: _first_dataset(monkeypatch, config, child))
    assert ds.outcomes.shape == (4000, 24)
    assert peak < 2.5 * config.n * sh._POINTS_PER_DAY * 8
    traces, peak = traced_peak(lambda: gen_glucose_traces(config))
    assert peak < 2 * traces.nbytes


def test_compute_tir_hand_example():
    trace = np.array([80.0, 200.0, 150.0, 100.0])  # 4 points, 360 min apart
    tir = compute_tir(trace, 720)
    np.testing.assert_allclose(tir, [0.5, 1.0])
    # range bounds are inclusive on both sides
    edges = np.array([70.0, 180.0, 69.9, 180.1])
    np.testing.assert_allclose(compute_tir(edges, 1440), [0.5])
    with pytest.raises(DataError, match="divide the day"):
        compute_tir(trace, 700)
    with pytest.raises(DataError, match="equal windows"):
        compute_tir(np.zeros(6), 360)


def test_apply_window_effect_placement():
    traces = np.full((2, 288, 2), 150.0)
    t = np.array([1, 0])
    out = apply_window_effect(traces, (720, 840), 30.0, t)
    assert traces[0, 144, 1] == 150.0  # input untouched
    week2 = out[0, :, 1]
    np.testing.assert_allclose(week2[144:168], 120.0)
    assert week2[143] == 150.0 and week2[168] == 150.0
    np.testing.assert_allclose(out[0, :, 0], 150.0)   # week 1 untouched
    np.testing.assert_allclose(out[1], 150.0)         # control untouched


def test_apply_window_effect_validation():
    traces = np.full((2, 288, 2), 150.0)
    t = np.array([1, 0])
    with pytest.raises(DataError, match="aligned"):
        apply_window_effect(traces, (721, 840), 10.0, t)
    with pytest.raises(DataError, match="start < end"):
        apply_window_effect(traces, (840, 720), 10.0, t)
    with pytest.raises(DataError, match="does not match"):
        apply_window_effect(traces, (720, 840), 10.0, np.array([1, 0, 1]))
    with pytest.raises(DataError, match="must be"):
        apply_window_effect(np.zeros((2, 288)), (720, 840), 10.0, t)
    # the check and wording of TrialDataset
    with pytest.raises(DataError, match=r"^treatment values must be 0 or 1; found 2 at row 2$"):
        apply_window_effect(np.full((4, 288, 2), 150.0), (720, 840), 10.0, [0, 1, 2, 1])


def test_window_level_groupings():
    levels = window_level_groupings((240, 120, 60))
    assert [len(level) for level in levels] == [6, 12, 24]
    assert levels[0][0] == (0, 1, 2, 3)
    assert levels[1][1] == (2, 3)
    assert levels[2][5] == (5,)
    for level in levels:
        flat = [j for group in level for j in group]
        assert sorted(flat) == list(range(24))
    with pytest.raises(DataError, match="multiple"):
        window_level_groupings((240, 90))
    with pytest.raises(DataError, match="need at least one window level"):
        window_level_groupings(())
    with pytest.raises(DataError, match=r"must be positive, got \(60, 0\)"):
        window_level_groupings((60, 0))


def test_trace_config_validation():
    with pytest.raises(DataError, match="n must be >= 4, got 3"):
        TraceExperimentConfig(n=3, effect_magnitude=1.0, seed=0)
    with pytest.raises(DataError, match=r"windows of \[32, 16\] minutes do not align "
                                        "to the 5-minute grid"):
        TraceExperimentConfig(n=20, effect_magnitude=1.0, seed=0,
                              level_window_minutes=(32, 16))
    with pytest.raises(DataError, match="need at least one window level"):
        TraceExperimentConfig(n=20, effect_magnitude=1.0, seed=0, level_window_minutes=())
    with pytest.raises(DataError, match="window"):
        TraceExperimentConfig(n=20, effect_magnitude=1.0, seed=0,
                              level_window_minutes=(240, 90))


def test_recovery_experiment_smoke():
    gen = LinearModelGenerator(LinearModelConfig(n=150, p=8, m=0, s_tau=2, alpha=1.2,
                                                 pi=0.5, seed=0))
    results = run_recovery_experiment(
        gen, ("baseline_dim", "lasso", pick_first), (1, 2), replicates=8, seed=1
    )
    assert set(results) == {"baseline_dim", "lasso", "pick_first"}
    for metrics in results.values():
        assert metrics.failures == 0
        for rate in metrics.recovery_rate_by_size.values():
            assert 0.0 <= rate <= 1.0
    # pick_first returns exactly the planted columns
    assert results["pick_first"].recovery_rate_by_size == {1: 1.0, 2: 1.0}
    assert results["lasso"].recovery_rate_by_size[2] >= 0.75
    again = run_recovery_experiment(
        gen, ("baseline_dim", "lasso", pick_first), (1, 2), replicates=8, seed=1
    )
    assert again["lasso"].recovery_rate_by_size == results["lasso"].recovery_rate_by_size


def test_recovery_experiment_counts_failures():
    gen = LinearModelGenerator(LinearModelConfig(n=60, p=4, m=0, s_tau=1, alpha=1.0,
                                                 pi=0.5, seed=0))
    results = run_recovery_experiment(gen, (always_fails,), (1,), replicates=5, seed=2)
    metrics = results["always_fails"]
    assert metrics.failures == 5
    assert metrics.recovery_rate_by_size is None


@pytest.mark.parametrize("run", [run_recovery_experiment, run_power_experiment])
def test_experiments_reject_a_call_they_cannot_run(run):
    """An empty size or method list, or an unknown built-in method name, is
    an error in the call, not a failed replicate."""
    gen = LinearModelGenerator(LinearModelConfig(n=60, p=4, m=0, s_tau=1, alpha=1.0,
                                                 pi=0.5, seed=0))
    with pytest.raises(DataError, match="^sizes must be nonempty$"):
        run(gen, ("lasso",), (), 2, 0)
    with pytest.raises(DataError, match="at least one method"):
        run(gen, (), (1,), 2, 0)
    with pytest.raises(DataError, match="unknown selection method 'lasso '"):
        run(gen, ("lasso", "lasso "), (1,), 3, 0)


@pytest.mark.parametrize("generator", [
    LinearModelGenerator(LinearModelConfig(n=60, p=5, m=2, s_tau=1, alpha=1.0, pi=0.5,
                                           seed=0)),
    LinearModelGenerator(LinearModelConfig(n=60, p=5, m=0, s_tau=1, alpha=1.0, pi=0.5,
                                           seed=0)),
], ids=["linear", "independent"])
@pytest.mark.parametrize("run", [run_recovery_experiment, run_power_experiment])
def test_experiments_check_sizes_against_the_outcome_count(monkeypatch, generator, run):
    """A size beyond the generator's ``p`` outcome columns is the data error
    of ``check_sizes``, raised before the first replicate, not a failure of
    every method in every replicate (that hid the valid size 2 too)."""
    started = []
    for worker in ("_recovery_replicate", "_power_replicate"):
        monkeypatch.setattr(sh, worker, lambda *args: started.append(args))
    assert generator.p == 5
    with pytest.raises(DataError, match=r"^sizes must be within \[1, p=5\], got \[2, 9\]$"):
        run(generator, ("lasso", "baseline"), (9, 2), 3, 0)
    assert not started


@pytest.mark.parametrize("m, test_estimator", [(0, "dim"), (2, "lin")])
def test_the_power_test_adjusts_by_lin_where_there_are_covariates(monkeypatch, m,
                                                                 test_estimator):
    """The group test on the evaluation dataset is ``lin``-adjusted where it
    has covariates and unadjusted where it has none, so the replicates of a
    covariate-free model reach the test rather than all failing."""
    gen = LinearModelGenerator(LinearModelConfig(n=60, p=6, m=m, s_tau=1, alpha=1.0,
                                                 pi=0.5, seed=0))
    used, estimate = [], sh.adjusted_estimate
    monkeypatch.setattr(sh, "adjusted_estimate",
                        lambda ds, method, *rest: used.append(method) or estimate(ds, method, *rest))
    child = np.random.SeedSequence(0).spawn(1)[0]
    rejections = sh._power_replicate(gen, {"lasso": "lasso"}, (1, 2), "cuped", 60, child)
    assert used == [test_estimator] * 2 and set(rejections["lasso"]) == {1, 2}


def test_experiments_check_their_estimators_before_the_first_replicate(monkeypatch):
    """An unknown selection estimator of the recovery and power experiments,
    and a pipeline the semi-synthetic experiment cannot run, are data errors
    raised before the first replicate, with the messages ``multi_split``
    gives."""
    started = []
    for worker in ("_recovery_replicate", "_power_replicate", "_semisynth_replicate"):
        monkeypatch.setattr(sh, worker, lambda *args: started.append(args))
    linear = LinearModelGenerator(LinearModelConfig(n=60, p=6, m=2, s_tau=1, alpha=1.0,
                                                    pi=0.5, seed=0))
    for run in (run_recovery_experiment, run_power_experiment):
        with pytest.raises(DataError, match=r"^unknown estimation method 'nope'$"):
            run(linear, ("baseline",), (1,), 3, 0, estimator="nope")
    traces = TraceExperimentConfig(n=40, effect_magnitude=5.0, seed=0,
                                   level_window_minutes=(480, 240))
    for kwargs, match in (({"estimator": "ols"}, r"unknown estimation method 'ols'"),
                          ({"select_size": 4}, r"sizes must be within \[1, p=3\], got \[4\]"),
                          ({"B": 0}, r"B must be >= 1, got 0"),
                          ({"gamma": 1.0}, r"gamma must be in \(0, 1\), got 1.0")):
        with pytest.raises(DataError, match=f"^{match}$"):
            run_semisynth_experiment(traces, 2, 0, **kwargs)
    assert not started


@pytest.mark.parametrize("replicates, match", [
    (0, "replicates must be >= 1, got 0"),
    (-2, "replicates must be >= 1, got -2"),
])
def test_experiments_need_a_replicate(monkeypatch, replicates, match):
    """Fewer than one replicate is a data error of every driver, raised
    before the first replicate."""
    started = []
    for worker in ("_recovery_replicate", "_power_replicate", "_semisynth_replicate"):
        monkeypatch.setattr(sh, worker, lambda *args: started.append(args))
    gen = LinearModelGenerator(LinearModelConfig(n=60, p=4, m=0, s_tau=1, alpha=1.0,
                                                 pi=0.5, seed=0))
    traces = TraceExperimentConfig(n=40, effect_magnitude=5.0, seed=0)
    runs = [
        lambda: run_recovery_experiment(gen, ("lasso",), (1,), replicates, 0),
        lambda: run_power_experiment(gen, ("lasso",), (1,), replicates, 0),
        lambda: run_semisynth_experiment(traces, replicates, 0, B=2),
    ]
    for run in runs:
        with pytest.raises(DataError, match=match):
            run()
    assert not started


@pytest.mark.parametrize("size", [3, 0])
def test_the_power_experiment_needs_a_second_sample_it_can_draw(monkeypatch, size):
    """A second sample under ``LinearModelConfig``'s least ``n`` of 4 rows
    is a data error that names the parameter, raised before the first
    replicate, not a failure of every replicate."""
    started = []
    monkeypatch.setattr(sh, "_power_replicate", lambda *args: started.append(args))
    gen = LinearModelGenerator(LinearModelConfig(n=40, p=5, m=1, s_tau=1, alpha=1.0,
                                                 pi=0.5, seed=0))
    with pytest.raises(DataError, match=f"^second_sample_size must be >= 4, got {size}$"):
        run_power_experiment(gen, ("lasso",), (1,), 3, 0, second_sample_size=size)
    assert not started


_GENERATOR = LinearModelGenerator(LinearModelConfig(n=30, p=5, m=2, s_tau=2, alpha=1.0,
                                                    pi=0.5, seed=0))


@pytest.mark.parametrize("draw", [
    lambda: gen_glucose_traces(TraceExperimentConfig(n=8, effect_magnitude=1.0, seed=-1)),
    lambda: _GENERATOR.replicate(-1),
    lambda: _GENERATOR.replicate_pair(np.int64(-1), 10),
], ids=["traces", "replicate", "replicate_pair"])
def test_a_negative_generator_seed_is_a_data_error(draw):
    """The seed rule of the splits and the experiments holds where a
    generator hands an int seed to numpy."""
    with pytest.raises(DataError, match=r"^seed must be >= 0, got -1$"):
        draw()


def _shared_and_serial(monkeypatch, call):
    """``call()`` with the replicates shared between two processes, then
    serially; the shared route forks one child."""
    results = []
    for cpus in (2, 1):
        with monkeypatch.context() as patch:
            forks = split_route(patch, cpus)
            results.append(call())
        assert len(forks) == cpus - 1
    return results


def test_a_lambda_method_gives_the_serial_rates_with_shared_replicates(monkeypatch):
    """Only results cross processes, so a custom method may be a lambda."""
    gen = LinearModelGenerator(LinearModelConfig(n=100, p=8, m=0, s_tau=2, alpha=0.3,
                                                 pi=0.5, seed=0))
    top = lambda ds, size: np.argsort(
        ds.outcomes[ds.treatments == 0].mean(axis=0)
        - ds.outcomes[ds.treatments == 1].mean(axis=0))[:size]
    shared, serial = _shared_and_serial(monkeypatch, lambda: run_recovery_experiment(
        gen, ("lasso", top), (1, 2), replicates=6, seed=9))
    assert set(serial) == {"lasso", "<lambda>"} and serial["<lambda>"].recovery_rate_by_size
    assert shared == serial


class _Faulty(LinearModelGenerator):
    """Raises a ``LookupError``, not a package error, in replicate 1."""

    def replicate(self, seed):
        if seed.spawn_key == (1,):
            raise LookupError("replicate 1")
        return super().replicate(seed)


def test_an_error_in_a_childs_replicate_reaches_the_caller(monkeypatch):
    """Replicate 1 runs in the forked child's share: its error ends the
    child, the share runs again here and the error reaches the caller as it
    does serially, with no child left."""
    gen = _Faulty(LinearModelConfig(n=60, p=4, m=0, s_tau=1, alpha=1.0, pi=0.5, seed=0))

    def raises():
        with pytest.raises(LookupError, match="replicate 1"):
            run_recovery_experiment(gen, ("lasso",), (1,), replicates=4, seed=0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    _shared_and_serial(monkeypatch, raises)


def test_power_experiment_smoke():
    strong = LinearModelGenerator(LinearModelConfig(n=200, p=6, m=0, s_tau=1, alpha=1.0,
                                                    pi=0.5, seed=0))
    null = LinearModelGenerator(LinearModelConfig(n=200, p=6, m=0, s_tau=0, alpha=0.0,
                                                  pi=0.5, seed=0))
    res_strong = run_power_experiment(
        strong, ("lasso",), (1,), replicates=10, seed=3, second_sample_size=200,
    )
    res_null = run_power_experiment(
        null, ("lasso",), (1,), replicates=10, seed=3, second_sample_size=200,
    )
    assert res_strong["lasso"].power_by_size[1] >= 0.8
    assert res_null["lasso"].power_by_size[1] <= 0.3
    assert res_strong["lasso"].recovery_rate_by_size is None


def test_semisynth_experiment_smoke():
    config = TraceExperimentConfig(n=80, effect_magnitude=25.0, seed=0)
    results = run_semisynth_experiment(
        config, replicates=3, seed=13, B=4, gamma=0.25, estimator="dim"
    )
    assert set(results) == {"fixed_240min", "fixed_120min", "proposed"}
    for metrics in results.values():
        assert metrics.replicates == 3
        if metrics.power is not None:
            assert 0.0 <= metrics.power <= 1.0
    again = run_semisynth_experiment(
        config, replicates=3, seed=13, B=4, gamma=0.25, estimator="dim"
    )
    assert again["proposed"].power == results["proposed"].power


def test_write_metrics_csv(tmp_path):
    results = {
        "lasso": ExperimentMetrics("lasso", 4, 1,
                                   recovery_rate_by_size={1: 0.5, 2: 0.75}),
        "proposed": ExperimentMetrics("proposed", 4, 0, power=0.25),
    }
    path = tmp_path / "metrics.csv"
    write_metrics_csv(results, path)
    lines = path.read_text().splitlines()
    assert lines == [
        "method,size,metric,value,replicates,failures",
        "lasso,1,recovery_rate,0.5,4,1",
        "lasso,2,recovery_rate,0.75,4,1",
        "proposed,,power,0.25,4,0",
    ]
