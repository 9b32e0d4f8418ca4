"""The benchmark's workloads: inputs, one op each, and the check of its output.

Each workload builds its inputs from the workload seed alone, drives the
public API of ``hdte`` (the CLI entry point or an experiment runner), and
turns an op's output into a summary with an ``exact`` part (selections,
subsets, active sets) and an ``approx`` part (p-values, weighted RSS). At the
default seed the summary is compared with a reference recorded from an
earlier commit; at every seed the workload's invariants are checked.

``small=True`` shrinks every input so that the self-test runs in seconds; a
small run is never compared with a reference.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import json
import time
from pathlib import Path

import numpy as np

import hdte
import hdte.cli
import hdte.simharness

DEFAULT_SEED = 0
# Relative tolerance for p-values and weighted RSS against the reference:
# a solver that reaches the same optimum by another route moves them at the
# level of its coefficient tolerance (1e-7), far below this.
REL_TOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
N_LAMBDAS = 100


class OpFailed(Exception):
    """An op returned a nonzero exit code or produced no output."""


def _cli(argv: list[str]) -> None:
    """Run one ``hdte`` command in process, keeping its chatter off stdout."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = hdte.cli.main(argv)
    if code != 0:
        raise OpFailed(f"hdte {argv[0]} exited with {code}: {err.getvalue().strip()}")


@contextlib.contextmanager
def _capture(module, name: str):
    """Collect the return values of ``module.name`` while the block runs."""
    original = getattr(module, name)
    seen = []

    def capturing(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(out)
        return out

    setattr(module, name, capturing)
    try:
        yield seen
    finally:
        setattr(module, name, original)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def with_weights(fn, ds, *args, **kwargs):
    """Call a ``wlasso`` entry point, passing the propensity weights only if
    its signature still takes them."""
    if "weights" in inspect.signature(fn).parameters:
        return fn(ds, hdte.propensity_weights(ds.treatments), *args, **kwargs)
    return fn(ds, *args, **kwargs)


def default_min_ratio(ds) -> float:
    """The path's documented default ``lambda_min_ratio``."""
    return 0.01 if ds.p > ds.n else 1e-4


def _in_unit_interval(values) -> bool:
    arr = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(arr)) and np.all((arr >= 0.0) & (arr <= 1.0)))


class Workload:
    """Base class; subclasses set the class attributes and the hooks."""

    name = ""
    same_input_every_op = True   # every op sees the same input
    probe_points = (1, 50, 99)   # grid positions of the cold-fit probes

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.small = small
        self.csv_path: Path | None = None

    # hooks -----------------------------------------------------------------
    def setup(self) -> float:
        """Build the inputs and warm up; returns seconds spent in ``write_csv``."""
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def summary(self, k: int, result) -> dict:
        raise NotImplementedError

    def invariants(self, k: int, result, summary: dict) -> list[str]:
        raise NotImplementedError

    def probe_dataset(self):
        raise NotImplementedError

    # shared ----------------------------------------------------------------
    def _write(self, ds, filename: str) -> float:
        self.csv_path = self.workdir / filename
        start = time.perf_counter()
        hdte.write_csv(ds, self.csv_path)
        return time.perf_counter() - start

    def _warm_csv(self, argv_tail: list[str]) -> None:
        """Run the op's command once on a tiny CSV, outside the timed loop."""
        tiny, _ = hdte.LinearModelGenerator(hdte.LinearModelConfig(
            n=40, p=8, m=2, s_tau=2, alpha=1.0, pi=0.5, seed=0)).replicate(0)
        path = self.workdir / "warmup.csv"
        hdte.write_csv(tiny, path)
        _cli([argv_tail[0], str(path), *argv_tail[1:],
              "--outdir", str(self.workdir / "warmup")])

    def reference(self) -> list[dict] | None:
        if self.small or self.seed != DEFAULT_SEED:
            return None
        path = REFERENCE_DIR / f"{self.name}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())["ops"]

    def check(self, k: int, result, reference: list[dict] | None) -> list[str]:
        """Problems with op ``k``'s output; an empty list means it passed."""
        summary = self.summary(k, result)
        problems = self.invariants(k, result, summary)
        if reference is not None:
            index = 0 if self.same_input_every_op else k
            if index < len(reference):
                problems += compare_summaries(summary, reference[index])
        return problems


def compare_summaries(got: dict, want: dict) -> list[str]:
    problems = []
    for key, value in want["exact"].items():
        if got["exact"].get(key) != value:
            problems.append(f"{key} differs from the reference")
    for key, value in want["approx"].items():
        a = np.asarray(got["approx"].get(key, []), dtype=np.float64)
        b = np.asarray(value, dtype=np.float64)
        if a.shape != b.shape or np.any(
                np.abs(a - b) > REL_TOL * np.maximum(np.abs(a), np.abs(b))):
            problems.append(f"{key} differs from the reference beyond rtol {REL_TOL}")
    return problems


class PathDeep(Workload):
    """``hdte path`` with the default 100-point grid on criterion 6's design.

    The design is fixed at replicate 0 of the criterion's generator, because
    solver work differs up to sevenfold between replicates (7.7k to 48k
    sweeps over replicates 0-5), which would drown any bound. The workload
    seed permutes the CSV's rows instead: the same problem, different bytes,
    identical sweep counts.
    """

    name = "path_deep"

    def _design(self):
        if self.small:
            cfg = hdte.LinearModelConfig(n=60, p=90, m=5, s_tau=3, alpha=0.6, pi=0.3, seed=0)
        else:
            cfg = hdte.LinearModelConfig(n=200, p=500, m=50, s_tau=5, alpha=0.4, pi=0.3, seed=0)
        ds, _ = hdte.LinearModelGenerator(cfg).replicate(0)
        if self.seed != DEFAULT_SEED:
            ds = ds.take_rows(np.random.default_rng(self.seed).permutation(ds.n))
        return ds

    def setup(self) -> float:
        self.ds = self._design()
        seconds = self._write(self.ds, "path_deep.csv")
        self._warm_csv(["path", "--n-lambdas", "5"])
        return seconds

    def op(self, k: int):
        outdir = self.workdir / f"op{k}"
        _cli(["path", str(self.csv_path), "--outdir", str(outdir)])
        return outdir

    def summary(self, k: int, result) -> dict:
        rows = _read_rows(result / "path.csv")
        return {
            "exact": {
                "active": [row["active"] for row in rows],
                "n_active": [int(row["n_active"]) for row in rows],
                "converged": [int(row["converged"]) for row in rows],
            },
            "approx": {
                "lambda": [float(row["lambda"]) for row in rows],
                "weighted_rss": [float(row["weighted_rss"]) for row in rows],
            },
        }

    def invariants(self, k: int, result, summary: dict) -> list[str]:
        problems = []
        exact, lam = summary["exact"], np.asarray(summary["approx"]["lambda"])
        if len(lam) != N_LAMBDAS:
            return [f"path has {len(lam)} grid points, expected {N_LAMBDAS}"]
        if not all(c == 1 for c in exact["converged"]):
            problems.append("a path fit has converged=0")
        for active, count in zip(exact["active"], exact["n_active"]):
            if len([j for j in active.split(";") if j]) != count:
                problems.append("n_active differs from the length of active")
                break
        expected = np.geomspace(self.lam_top, self.lam_top * default_min_ratio(self.ds),
                                N_LAMBDAS)
        if np.any(np.abs(lam - expected) > 1e-12 * expected):
            problems.append("lambdas are not geometric from lambda_max")
        return problems

    @functools.cached_property
    def lam_top(self) -> float:
        return with_weights(hdte.lambda_max, self.ds)

    def probe_dataset(self):
        return self.ds


class CsvWide(Workload):
    """``hdte multisplit --B 5 --s 5`` on a 500 x 4000 CSV with 10 covariates.

    Covariates are present, so the default estimator is cuped. The workload
    seed draws the data (the linear model's coefficients and rows).
    """

    name = "csv_wide"
    # A cold fit at the bottom of a 4000-column grid runs into the 10,000
    # sweep cap without converging (44 s) in a regime no op reaches.
    probe_points = (1, 50)
    B, S = 5, 5

    def setup(self) -> float:
        if self.small:
            cfg = hdte.LinearModelConfig(n=120, p=300, m=3, s_tau=5, alpha=0.5, pi=0.5, seed=0)
        else:
            cfg = hdte.LinearModelConfig(n=500, p=4000, m=10, s_tau=5, alpha=0.5, pi=0.5, seed=0)
        self.ds, _ = hdte.LinearModelGenerator(cfg).replicate(self.seed)
        seconds = self._write(self.ds, "csv_wide.csv")
        self._warm_csv(["multisplit", "--B", "2", "--s", "1"])
        return seconds

    def op(self, k: int):
        outdir = self.workdir / f"op{k}"
        with _capture(hdte.cli, "multi_split") as reports:
            _cli(["multisplit", str(self.csv_path), "--B", str(self.B), "--s", str(self.S),
                  "--outdir", str(outdir)])
        if len(reports) != 1:
            raise OpFailed(f"multisplit ran multi_split {len(reports)} times")
        return outdir, reports[0]

    def summary(self, k: int, result) -> dict:
        outdir, report = result
        rows = _read_rows(outdir / "multisplit_per_dim.csv")
        group = _read_rows(outdir / "multisplit_group.csv")
        return {
            "exact": {
                "per_split_subsets": [list(s) for s in report.per_split_subsets],
                "selection_frequency": [float(row["selection_frequency"]) for row in rows],
                "B": [int(row["B"]) for row in group],
            },
            "approx": {
                "p": [float(row["p"]) for row in rows],
                "group_p": [float(row["p"]) for row in group],
            },
        }

    def invariants(self, k: int, result, summary: dict) -> list[str]:
        problems = []
        exact, approx = summary["exact"], summary["approx"]
        if len(approx["p"]) != self.ds.p:
            problems.append(f"{len(approx['p'])} per-dimension rows for p={self.ds.p}")
        if not (_in_unit_interval(approx["p"]) and _in_unit_interval(approx["group_p"])):
            problems.append("a multisplit p-value lies outside [0, 1]")
        subsets = exact["per_split_subsets"]
        if exact["B"] != [self.B] or len(subsets) != self.B:
            problems.append(f"expected {self.B} splits")
        if any(len(s) != self.S for s in subsets):
            problems.append(f"a split did not select {self.S} columns")
        if abs(sum(exact["selection_frequency"]) * self.B - self.B * self.S) > 1e-9:
            problems.append("selection frequencies do not add up to B * s")
        return problems

    def probe_dataset(self):
        return self.ds


class Semisynth(Workload):
    """One replicate of ``run_semisynth_experiment`` at criterion 9's config:
    n=1000, magnitude 11, levels 240/120/60, B=20, s=2, lin estimator.

    Op ``k`` uses replicate seed ``seed * 1_000_000 + k``, so every op is a
    new replicate and a run's ops are fixed by the workload seed.
    """

    name = "semisynth"
    same_input_every_op = False

    def setup(self) -> float:
        self.n = 500 if self.small else 1000
        self.B = 4 if self.small else 20
        self.config = hdte.TraceExperimentConfig(n=self.n, effect_magnitude=11.0, seed=0)
        hdte.simharness.run_semisynth_experiment(
            hdte.TraceExperimentConfig(n=200, effect_magnitude=11.0, seed=0), 1, 0,
            B=2, select_size=2, estimator="lin")
        return 0.0

    def op(self, k: int):
        with _capture(hdte.simharness, "multi_split") as reports:
            metrics = hdte.simharness.run_semisynth_experiment(
                self.config, 1, self.seed * 1_000_000 + k,
                B=self.B, select_size=2, estimator="lin")
        return metrics, reports

    def summary(self, k: int, result) -> dict:
        metrics, reports = result
        return {
            "exact": {
                "power": {name: m.power for name, m in sorted(metrics.items())},
                "failures": sum(m.failures for m in metrics.values()),
                "per_split_subsets": [[list(s) for s in r.per_split_subsets]
                                      for r in reports],
            },
            "approx": {
                "group_p": [r.group_aggregated for r in reports],
                "per_dim_p": [float(v) for r in reports for v in r.per_dim_aggregated],
            },
        }

    def invariants(self, k: int, result, summary: dict) -> list[str]:
        problems = []
        exact, approx = summary["exact"], summary["approx"]
        if exact["failures"] != 0:
            problems.append(f"semisynth reported {exact['failures']} failures")
        if sorted(exact["power"]) != ["fixed_120min", "fixed_240min", "proposed"]:
            problems.append(f"unexpected methods {sorted(exact['power'])}")
        if len(exact["per_split_subsets"]) != 1:
            problems.append("the replicate did not run multi_split exactly once")
        elif any(len(s) != 2 for s in exact["per_split_subsets"][0]) \
                or len(exact["per_split_subsets"][0]) != self.B:
            problems.append(f"expected {self.B} splits selecting 2 windows each")
        if not (_in_unit_interval(approx["group_p"]) and _in_unit_interval(approx["per_dim_p"])):
            problems.append("a multisplit p-value lies outside [0, 1]")
        return problems

    def probe_dataset(self):
        """A finest-level (60-minute) dataset built like one replicate's."""
        traces = hdte.gen_glucose_traces(
            hdte.TraceExperimentConfig(n=self.n, effect_magnitude=11.0, seed=self.seed))
        t = (np.random.default_rng(self.seed).random(self.n) < 0.5).astype(np.int64)
        traces = hdte.apply_window_effect(traces, (600, 720), 11.0, t)
        return hdte.TrialDataset(t, hdte.compute_tir(traces[:, :, 1], 60),
                                 hdte.compute_tir(traces[:, :, 0], 60))


WORKLOADS = {cls.name: cls for cls in (PathDeep, CsvWide, Semisynth)}
