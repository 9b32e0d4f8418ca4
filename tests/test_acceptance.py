"""Acceptance suite: every shipped guarantee, one visible line per criterion.

Each test records a [PASS]/[FAIL] line that the terminal summary echoes after
the run, so a full pytest invocation ends with a readable checklist.
Statistical criteria run at their stated scale with frozen seeds; tolerances
are the contract, not aspirations.
"""

import itertools
import math

import numpy as np

from hdte.cli import main as cli_main
from hdte.data import TrialDataset, write_csv
from hdte.estimators import adjusted_estimate
from hdte.inference import (
    SelectionSpec,
    aggregate_pvalues,
    hotelling_statistic,
    multi_split,
    single_split_pipeline,
)
from hdte.selection import population_beta_star, run_selection
from hdte.simharness import (
    LinearModelConfig,
    LinearModelGenerator,
    TraceExperimentConfig,
    run_power_experiment,
    run_recovery_experiment,
    run_semisynth_experiment,
)
from hdte.wlasso import (
    EnetConfig,
    WeightedProblem,
    fit_weighted_enet,
    lambda_max,
    propensity_weights,
)


def _report(log, number, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    log(line)
    assert ok, line


def _balanced_dataset(rng, n, p, m=0):
    t = np.zeros(n, dtype=int)
    t[: n // 2] = 1
    rng.shuffle(t)
    x = rng.standard_normal((n, m)) if m else None
    y = rng.standard_normal((n, p))
    y[:, 0] += 0.5 * t
    return TrialDataset(t, y, x)


def test_criterion_01_rss_hotelling_equivalence(criterion_log):
    """Minimizing subset weighted RSS is the same search as maximizing the
    subset quadratic-form statistic, checked by brute force."""
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(50):
        ds = _balanced_dataset(rng, 30, 6)
        for size in (1, 2, 3):
            subsets = list(itertools.combinations(range(6), size))
            problem = WeightedProblem.from_dataset(ds)
            rss = [problem.subset_weighted_rss(s) for s in subsets]
            stat = [hotelling_statistic(adjusted_estimate(ds, "dim", s)) for s in subsets]
            if set(subsets[int(np.argmin(rss))]) != set(subsets[int(np.argmax(stat))]):
                _report(criterion_log, 1, "RSS argmin = group-statistic argmax",
                        False, f"mismatch at size {size}")
            checked += 1
    _report(criterion_log, 1, "RSS argmin = group-statistic argmax",
            True, f"{checked} dataset/size combinations, exact set equality")


def test_criterion_02_weighted_moment_identity(criterion_log):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(20, 80))
        p = int(rng.integers(2, 7))
        t = np.zeros(n, dtype=int)
        t[: int(rng.integers(4, n - 3))] = 1
        rng.shuffle(t)
        ds = TrialDataset(t, rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0))
        w = propensity_weights(ds.treatments)
        est = adjusted_estimate(ds, "dim")
        yc = ds.outcomes - ds.outcomes.mean(axis=0)
        lhs = (yc * w[:, None]).T @ yc / n
        n_t = ds.n_treated
        n_c = n - n_t
        c = n_c / n_t + n_t / n_c - 1.0
        rhs = est.sigma_hat + c * np.outer(est.tau_hat, est.tau_hat)
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    _report(criterion_log, 2, "weighted second moment = Sigma-hat + rank-one correction",
            worst < 1e-8, f"100 instances, max relative deviation {worst:.2e}")


def _kkt_gap(ds, fit, lam, l1_ratio):
    w = propensity_weights(ds.treatments)
    yc = ds.outcomes - ds.outcomes.mean(axis=0)
    t = ds.treatments.astype(float)
    if ds.m:
        xc = ds.covariates - ds.covariates.mean(axis=0)
        r = t - yc @ fit.beta - xc @ fit.alpha_cov
        worst = float(np.max(np.abs(xc.T @ (w * r) / ds.n)))
    else:
        r = t - yc @ fit.beta
        worst = 0.0
    grad = -2.0 * yc.T @ (w * r) / ds.n
    lam1 = lam * l1_ratio
    for j in range(ds.p):
        if fit.beta[j] != 0.0:
            res = grad[j] + 2.0 * lam1 * np.sign(fit.beta[j]) \
                + 4.0 * lam * (1.0 - l1_ratio) * fit.beta[j]
            worst = max(worst, abs(res))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - 2.0 * lam1))
    return worst


def test_criterion_03_solver_certificates(criterion_log):
    rng = np.random.default_rng(1003)
    # unpenalized fits against the weighted normal equations
    worst_ls = 0.0
    for _ in range(30):
        n = int(rng.integers(40, 100))
        p = int(rng.integers(2, 8))
        m = int(rng.integers(0, 4))
        ds = _balanced_dataset(rng, n, p, m)
        w = propensity_weights(ds.treatments)
        fit = fit_weighted_enet(ds, EnetConfig(lam=0.0, tol=1e-12))
        yc = ds.outcomes - ds.outcomes.mean(axis=0)
        z = yc if not m else np.hstack([yc, ds.covariates - ds.covariates.mean(axis=0)])
        coef = np.linalg.solve(z.T @ (w[:, None] * z),
                               z.T @ (w * ds.treatments))
        got = fit.beta if not m else np.concatenate([fit.beta, fit.alpha_cov])
        worst_ls = max(worst_ls,
                       np.linalg.norm(got - coef) / np.linalg.norm(coef))
    # stationarity certificates across penalized fuzz cases
    worst_kkt = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 90))
        p = int(rng.integers(2, 11))
        m = int(rng.integers(0, 4))
        ds = _balanced_dataset(rng, n, p, m)
        l1 = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.3, 1.0))
        lam = float(rng.uniform(0.05, 1.1)) * lambda_max(ds, l1)
        fit = fit_weighted_enet(ds, EnetConfig(lam=lam, l1_ratio=l1, tol=1e-10))
        assert fit.converged
        worst_kkt = max(worst_kkt, _kkt_gap(ds, fit, lam, l1))
    # the all-zero region starts exactly at lambda_max
    zero_ok = True
    for _ in range(20):
        ds = _balanced_dataset(rng, int(rng.integers(30, 60)), 5)
        lmax = lambda_max(ds)
        for lam in (lmax, 1.3 * lmax):
            fit = fit_weighted_enet(ds, EnetConfig(lam=lam, tol=1e-10))
            zero_ok = zero_ok and not np.any(fit.beta)
    ok = worst_ls < 1e-8 and worst_kkt < 1e-6 and zero_ok
    _report(criterion_log, 3, "solver matches normal equations, passes stationarity checks, "
               "zeroes at lambda_max",
            ok, f"ls {worst_ls:.2e}, kkt {worst_kkt:.2e}, zero {zero_ok}")


def test_criterion_04_population_coefficients(criterion_log):
    rng = np.random.default_rng(1004)
    worst = 0.0
    worst_cos = 1.0
    for _ in range(100):
        p = int(rng.integers(2, 9))
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + p * np.eye(p)
        tau = rng.standard_normal(p) * rng.uniform(0.2, 2.0)
        pi = float(rng.uniform(0.15, 0.85))
        target = population_beta_star(tau, sigma, pi)
        ratio = (1.0 - pi) / pi
        c = ratio + 1.0 / ratio - 1.0
        oracle = ratio * np.linalg.inv(sigma + c * np.outer(tau, tau)) @ tau
        worst = max(worst,
                    np.linalg.norm(target.beta_star - oracle) / np.linalg.norm(oracle))
        direction = np.linalg.inv(sigma) @ tau
        cos = target.beta_star @ direction / (
            np.linalg.norm(target.beta_star) * np.linalg.norm(direction))
        worst_cos = min(worst_cos, float(cos))
    ok = worst < 1e-8 and worst_cos >= 1.0 - 1e-8
    _report(criterion_log, 4, "closed-form population coefficients match the inverse oracle",
            ok, f"100 SPD cases, max dev {worst:.2e}, min cosine {worst_cos:.12f}")


def test_criterion_05_support_recovery_consistency(criterion_log):
    gen = LinearModelGenerator(LinearModelConfig(
        n=2000, p=50, m=10, s_tau=5, alpha=1.0, pi=0.5, seed=0))
    hits = 0
    for k in range(100):
        ds, s_true = gen.replicate(k)
        (sel,), _ = run_selection(ds, SelectionSpec(size=5))
        hits += set(sel.selected) == set(int(j) for j in s_true)
    _report(criterion_log, 5, "size-5 selection recovers the exact support at n=2000",
            hits >= 95, f"{hits}/100 replicates")


def test_criterion_06_recovery_and_power_ordering(criterion_log):
    gen = LinearModelGenerator(LinearModelConfig(
        n=200, p=500, m=50, s_tau=5, alpha=0.4, pi=0.3, seed=0))
    rec = run_recovery_experiment(gen, ("baseline", "lasso", "enet"), (5,),
                                  replicates=200, seed=11)
    b = rec["baseline"].recovery_rate_by_size[5]
    l = rec["lasso"].recovery_rate_by_size[5]
    e = rec["enet"].recovery_rate_by_size[5]
    rec_ok = e >= l - 0.02 and l >= b and e >= b
    power = run_power_experiment(gen, ("baseline", "lasso"), (1, 2, 3, 4, 5),
                                 replicates=200, seed=12)
    gaps = {
        s: power["lasso"].power_by_size[s] - power["baseline"].power_by_size[s]
        for s in (1, 2, 3, 4, 5)
    }
    power_ok = all(g >= 0.0 for g in gaps.values())
    _report(criterion_log, 6, "sparse selection beats marginal ranking at 200x500",
            rec_ok and power_ok,
            f"recovery enet {e:.3f} / lasso {l:.3f} / baseline {b:.3f}; "
            f"min power gap {min(gaps.values()):+.3f}")


def test_criterion_07_null_calibration(criterion_log):
    null_gen = LinearModelGenerator(LinearModelConfig(n=400, p=20, m=0, s_tau=0,
                                                      alpha=0.0, pi=0.5, seed=0))
    hits = 0
    for k in range(1000):
        ds, _ = null_gen.replicate(k)
        report = single_split_pipeline(ds, "dim", SelectionSpec(size=2), seed=k)
        hits += report.group <= 0.05
    single_rate = hits / 1000
    hits = 0
    for k in range(200):
        ds, _ = null_gen.replicate(10_000 + k)
        report = multi_split(ds, B=50, method="dim",
                             sel=SelectionSpec(size=2), seed=k)
        hits += report.group_aggregated <= 0.05
    multi_rate = hits / 200
    ok = 0.03 <= single_rate <= 0.07 and multi_rate <= 0.07
    _report(criterion_log, 7, "group tests hold their level under the null",
            ok, f"single-split {single_rate:.3f}, multi-split {multi_rate:.3f}")


def test_criterion_08_aggregation_oracle(criterion_log):
    rng = np.random.default_rng(1008)
    exact = True
    for _ in range(1000):
        b = int(rng.integers(1, 41))
        k = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.02, 0.98))
        pm = rng.random((b, k))
        got = aggregate_pvalues(pm, gamma)
        order = max(1, math.ceil(gamma * b - 1e-9))
        oracle = np.minimum(1.0, np.sort(pm / gamma, axis=0)[order - 1])
        exact = exact and np.array_equal(got, oracle)
    for _ in range(200):
        gamma = float(rng.uniform(0.02, 0.98))
        pm = rng.random((1, int(rng.integers(1, 6))))
        exact = exact and np.array_equal(
            aggregate_pvalues(pm, gamma), np.minimum(1.0, pm[0] / gamma))
    _report(criterion_log, 8, "p-value aggregation equals the order-statistic oracle",
            exact, "1000 random matrices bit-exact; single-split reduction holds")


def test_criterion_09_semisynthetic_power_ordering(criterion_log):
    config = TraceExperimentConfig(n=1000, effect_magnitude=11.0, seed=0)
    results = run_semisynth_experiment(config, replicates=200, seed=303,
                                       select_size=2)
    p240 = results["fixed_240min"].power
    p120 = results["fixed_120min"].power
    prop = results["proposed"].power
    failures = sum(m.failures for m in results.values())
    ok = (prop - p120 >= 0.05 and p120 - p240 >= 0.05
          and 0.3 <= p120 <= 0.7 and failures == 0)
    _report(criterion_log, 9, "multi-resolution pipeline beats fixed windows on traces",
            ok, f"4h {p240:.3f} < 2h {p120:.3f} < proposed {prop:.3f}, "
                f"{failures} failures")


def test_criterion_10_cli_rerun_determinism(criterion_log, tmp_path):
    rng = np.random.default_rng(42)
    n = 120
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal((n, 4)) + x @ rng.uniform(0.2, 0.8, (2, 4))
    y[:, :2] += 1.5 * t[:, None]
    data = tmp_path / "trial.csv"
    write_csv(TrialDataset(t, y, x), data)

    first_sel = tmp_path / "cmd_select"
    assert cli_main(["select", str(data), "--s", "2",
                     "--outdir", str(first_sel)]) == 0
    commands = {
        "select": ["select", str(data), "--s", "2"],
        "infer": ["infer", str(data), str(first_sel / "selection.csv")],
        "multisplit": ["multisplit", str(data), "--B", "5", "--s", "1"],
        "path": ["path", str(data), "--n-lambdas", "15"],
        "simulate": ["simulate", "--n", "80", "--p", "6", "--m", "2",
                     "--s-tau", "2", "--alpha", "1.5", "--replicates", "2",
                     "--sizes", "1,2", "--methods", "baseline_dim,lasso"],
        "semisynth": ["semisynth", "--n", "80", "--alpha", "20",
                      "--replicates", "2", "--B", "4", "--gamma", "0.25",
                      "--estimator", "dim"],
    }
    mismatches = []
    for name, argv in commands.items():
        outdir = tmp_path / f"run_{name}"
        replay = tmp_path / f"replay_{name}"
        assert cli_main(argv + ["--outdir", str(outdir)]) == 0
        assert cli_main(["rerun", str(outdir / "manifest.json"),
                         "--outdir", str(replay)]) == 0
        produced = sorted(f.name for f in outdir.glob("*.csv"))
        assert produced, f"{name} wrote no CSV output"
        for fname in produced:
            if (outdir / fname).read_bytes() != (replay / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    _report(criterion_log, 10, "every command replays byte-identically from its manifest",
            not mismatches,
            f"{len(commands)} commands" + (f"; diffs: {mismatches}" if mismatches else ""))
