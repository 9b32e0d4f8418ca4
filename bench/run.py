"""Run one benchmark workload and print its record.

    python3 bench/run.py --workload path_deep --seed 0 --seconds 20 --trace 0

One process, one closed-loop client: the next op starts when the previous
one has ended, and ops start until ``--seconds`` have passed. Run from the
root of a source checkout; ``hdte`` is imported from its ``src/``.

With ``--trace 0`` the end-to-end metrics are measured. With ``--trace 1``
ops alternate between untraced and traced, and the per-layer metrics come
from the traced ones; cold-fit probes on the op's dataset run afterwards.
Outputs are checked after the timed loop. The second-to-last line of stdout
is the full record (environment, counts, every metric); the last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import time

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
SETUP_REPEATS = 3
SELF_TIME_SLACK = 0.02   # allowed share of a traced op not covered by layer spans


def import_hdte():
    """Import the package from this checkout's ``src/``; exit nonzero if absent."""
    if not (SRC / "hdte" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hdte'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hdte
    if Path(hdte.__file__).resolve().parent != SRC / "hdte":
        sys.exit(f"error: imported hdte from {hdte.__file__}, not from {SRC}")
    return hdte


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing ``hdte`` from ``src/``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); import hdte"],
                   check=True)
    return time.perf_counter() - start


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SolverCounts:
    """Sweeps and grid points of the path walks and fits the tracer sees."""

    def __init__(self):
        self.sweeps = self.sweeps_tail = self.grid_points = 0
        self.nonconverged = self.max_active = 0

    def observe(self, label: str, result) -> None:
        if label == "wlasso.regularization_path":
            fits = result.fits
            self.sweeps_tail += sum(f.iterations for f in fits[-10:])
        elif label == "wlasso.fit_weighted_enet":
            fits = (result,)
        else:
            return
        self.sweeps += sum(f.iterations for f in fits)
        self.grid_points += len(fits)
        self.nonconverged += sum(not f.converged for f in fits)
        self.max_active = max(self.max_active, *(len(f.active_set) for f in fits))


def _probes(hdte, workload) -> dict:
    """Moment preparation alone, then cold fits at fixed grid positions."""
    import numpy as np
    from workloads import N_LAMBDAS, default_min_ratio, with_weights

    ds = workload.probe_dataset()
    out = {}
    start = time.perf_counter()
    lam_top = with_weights(hdte.lambda_max, ds)
    out["wlasso.probe.prepare_s"] = time.perf_counter() - start
    grid = np.geomspace(lam_top, lam_top * default_min_ratio(ds), N_LAMBDAS)
    for label, position in zip(("top", "mid", "bottom"), (1, 50, 99)):
        seconds = sweeps = 0
        if position in workload.probe_points:
            start = time.perf_counter()
            fit = with_weights(hdte.fit_weighted_enet, ds, hdte.EnetConfig(lam=grid[position]))
            seconds, sweeps = time.perf_counter() - start, fit.iterations
        out[f"wlasso.probe.fit_{label}_s"] = seconds
        out[f"wlasso.probe.fit_{label}_sweeps"] = sweeps
    return out


def layer_metrics(summary: dict, n_ops: int, counts: SolverCounts,
                  csv_bytes: int) -> dict:
    """Per-op averages of the traced ops' spans and solver counts."""
    per = 1.0 / n_ops
    self_s, total_s, calls = summary["self_s"], summary["total_s"], summary["calls"]

    def t(name):
        return total_s.get(name, 0.0) * per

    def c(name):
        return calls.get(name, 0) * per

    load_s = t("data.load_csv")
    splits = c("data.random_split")
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) * per for layer in LAYERS}
    out.update({
        "cli.main.s": t("cli.main"),
        "data.load_csv.s": load_s,
        "data.load_csv.mb_per_s":
            c("data.load_csv") * csv_bytes / 1e6 / load_s if load_s > 0 else 0.0,
        "data.random_split.calls": splits,
        "data.random_split.s": t("data.random_split"),
        "data.aggregate_columns.calls": c("data.aggregate_columns"),
        "data.aggregate_columns.s": t("data.aggregate_columns"),
        "estimators.adjusted_estimate.calls": c("estimators.adjusted_estimate"),
        "estimators.adjusted_estimate.s": t("estimators.adjusted_estimate"),
        "estimators.diff_in_means.s": t("estimators.diff_in_means"),
        "estimators.lin_adjust.s": t("estimators.lin_adjust"),
        "estimators.cuped_adjust.s": t("estimators.cuped_adjust"),
        "wlasso.regularization_path.s": t("wlasso.regularization_path"),
        "wlasso.sweeps": counts.sweeps * per,
        "wlasso.sweeps_tail": counts.sweeps_tail * per,
        "wlasso.grid_points": counts.grid_points * per,
        "wlasso.nonconverged": counts.nonconverged * per,
        "wlasso.max_active": counts.max_active,
        "wlasso.subset_weighted_rss.calls": c("wlasso.subset_weighted_rss"),
        "wlasso.subset_weighted_rss.s": t("wlasso.subset_weighted_rss"),
        "selection.sparse_select.calls": c("selection.sparse_select"),
        "selection.sparse_select.s": t("selection.sparse_select"),
        "selection.path_selections.s": t("selection.path_selections"),
        "selection.select_resolution_level.calls": c("selection.select_resolution_level"),
        "selection.select_resolution_level.s": t("selection.select_resolution_level"),
        "inference.multi_split.s": t("inference.multi_split"),
        "inference.split_s": t("inference.multi_split") / splits if splits else 0.0,
        "inference.hotelling_pvalue.calls": c("inference.hotelling_pvalue"),
        "inference.hotelling_pvalue.s": t("inference.hotelling_pvalue"),
        "inference.z_pvalues.s": t("inference.z_pvalues"),
        "inference.aggregate_pvalues.s": t("inference.aggregate_pvalues"),
        "simharness.run_semisynth_experiment.s": t("simharness.run_semisynth_experiment"),
        "simharness.compute_tir.s": t("simharness.compute_tir"),
    })
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    """Set up, run the closed loop, check outputs; returns the full record."""
    hdte = import_hdte()
    from workloads import WORKLOADS   # also imports hdte.cli

    workdir = WORK / workload_name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[workload_name](seed, workdir, small=small)

    # One set-up is a fresh interpreter's import plus the workload's own
    # set-up; the median of several keeps one slow moment out of setup_s.
    setup_runs, write_runs = [], []
    for _ in range(SETUP_REPEATS):
        import_s = _import_seconds()
        start = time.perf_counter()
        write_runs.append(workload.setup())
        setup_runs.append(import_s + time.perf_counter() - start)
    csv_bytes = workload.csv_path.stat().st_size if workload.csv_path else 0

    modules = {layer: sys.modules[f"hdte.{layer}"] for layer in LAYERS}
    counts = SolverCounts()
    tracer = Tracer(observe=counts.observe)
    ops = []   # (seconds, traced, result, error)
    begin = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        if traced:
            tracer.install(modules)
        start = time.perf_counter()
        try:
            result, error = workload.op(len(ops)), None
        except Exception as exc:   # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if traced:
            tracer.remove()
        ops.append((end - start, traced, result, error))
        if end - begin >= seconds and (not trace or len(ops) >= 2):
            break
    wall = end - begin

    reference = workload.reference()
    failures = []
    for k, (_, _, result, error) in enumerate(ops):
        if error is None:
            try:
                problems = workload.check(k, result, reference)
            except Exception as exc:   # unreadable output fails the op's check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error is not None:
            failures.append({"op": k, "error": error})

    times = [s for s, traced_op, _, _ in ops if not traced_op]
    record = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "small": small,
        "env": environment(seed),
        "op_count": len(times),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "reference_checked": reference is not None,
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_runs),
            "ops_per_s": len(ops) / wall,
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        record["extra"] = {
            "op_p90_s": statistics.quantiles(times, n=10)[8] if len(times) >= 100 else None,
            "failed_frac": len(failures) / len(ops),
            "setup_runs_s": setup_runs,
            "op_seconds": times,
        }
    else:
        traced_times = [s for s, traced_op, _, _ in ops if traced_op]
        summary = tracer.summarize()
        metrics = layer_metrics(summary, len(traced_times), counts, csv_bytes)
        metrics.update(_probes(hdte, workload))
        traced_p50 = statistics.median(traced_times)
        attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        metrics.update({
            "data.write_csv.s": statistics.median(write_runs),
            "bench.op_traced_s": statistics.mean(traced_times),
            "bench.unattributed_frac": 1.0 - attributed / statistics.mean(traced_times),
            "bench.trace_overhead_frac": traced_p50 / statistics.median(times) - 1.0,
        })
        record["extra"] = {"self_time_slack": SELF_TIME_SLACK,
                           "traced_ops": len(traced_times)}
        tracer.write(WORK / f"{workload_name}-seed{seed}.spans.jsonl")
    shutil.rmtree(workdir, ignore_errors=True)
    units = metric_units()
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("path_deep", "csv_wide", "semisynth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
