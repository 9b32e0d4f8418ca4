"""Command-line front end.

Every analysis command writes its outputs plus a ``manifest.json`` capturing
the command name, the fully resolved parameters, and library versions; the
``rerun`` command replays a manifest and regenerates byte-identical CSVs.
Errors leave a single-line JSON record on stderr and a distinct exit code:
1 for usage problems, 2 for data problems, 3 for numerical failures.
"""

from __future__ import annotations

import csv
import json
import os
import platform
from importlib.metadata import PackageNotFoundError, version as _dist_version
from pathlib import Path

import click
import numpy as np
import scipy

from .data import CsvSchema, load_csv
from .errors import DataError, HdteError, NumericalError
from .estimators import adjusted_estimate
from .inference import hotelling_pvalue, hotelling_statistic, multi_split, z_pvalues
from .selection import SelectionSpec, method_l1_ratio, run_selection
from .simharness import (
    LinearModelConfig,
    LinearModelGenerator,
    TraceExperimentConfig,
    run_power_experiment,
    run_recovery_experiment,
    run_semisynth_experiment,
    write_metrics_csv,
)
from .wlasso import EnetConfig, regularization_path

try:
    _HDTE_VERSION = _dist_version("hdte")
except PackageNotFoundError:
    _HDTE_VERSION = "unknown"


def _versions() -> dict:
    return {
        "hdte": _HDTE_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": _dist_version("click"),
    }


def _resolve_outdir(value: str | None) -> Path:
    return Path(value if value is not None else os.environ.get("HDTE_OUTDIR", "."))


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _split_ints(raw: str, option: str) -> list[int]:
    """The comma-separated integers of ``option``; any other value is a data error."""
    try:
        return [int(name) for name in _split_names(raw)]
    except ValueError:
        raise DataError(f"{option} takes comma-separated integers, got {raw!r}") from None


def _load_dataset(params):
    path = params["data"]
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header = next(csv.reader(handle), None)
    except UnicodeDecodeError as exc:   # as load_csv reports it
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if header is None:
        raise DataError(f"{path} is empty")
    header = [name.strip() for name in header]   # as load_csv matches them
    treatment = params["treatment_col"]
    if params["outcome_cols"]:
        outcomes = _split_names(params["outcome_cols"])
    else:
        outcomes = tuple(
            c for c in header if c != treatment and c.startswith("y")
        )
        if not outcomes:
            raise DataError(
                "no outcome columns found by the 'y' prefix convention; "
                "pass --outcome-cols explicitly"
            )
    raw_cov = params["covariate_cols"]
    if raw_cov == "none":
        covariates = ()
    elif raw_cov:
        covariates = _split_names(raw_cov)
    else:
        taken = set(outcomes)
        covariates = tuple(
            c for c in header
            if c != treatment and c not in taken and c.startswith("x")
        )
    return load_csv(path, CsvSchema(treatment, outcomes, covariates))


def _resolve_estimator(value: str | None, ds) -> str:
    if value is not None:
        return value
    return "cuped" if ds.covariates is not None else "dim"


def _selection_spec(params) -> SelectionSpec:
    """The ``--selection``/``--s``/``--lam``/``--l1-ratio`` options as a spec."""
    method = params["selection"]
    if method == "baseline" and params["s"] is None:
        raise DataError("baseline selection needs --s")
    config = EnetConfig(
        l1_ratio=method_l1_ratio(method, params["l1_ratio"]),
        tol=params.get("tol", 1e-7),
        max_iter=params.get("max_iter", 10_000),
    )
    return SelectionSpec(method, params["s"], params["lam"], config=config)


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# command implementations (params dicts are JSON round-trippable)


def _run_select(params, outdir: Path) -> None:
    ds = _load_dataset(params)
    (result,), _ = run_selection(
        ds, _selection_spec(params), _resolve_estimator(params["estimator"], ds),
        n_lambdas=params["n_lambdas"], lambda_min_ratio=params["lambda_min_ratio"],
    )
    rss = "" if result.weighted_rss is None else _fmt(result.weighted_rss)
    rows = [
        [rank, j, ds.column_labels[j], _fmt(result.scores[rank]),
         result.method, _fmt(result.tuning), rss]
        for rank, j in enumerate(result.selected)
    ]
    _write_rows(
        outdir / "selection.csv",
        ["rank", "index", "label", "score", "method", "tuning", "weighted_rss"],
        rows,
    )


def _read_selected_indices(path, p: int) -> tuple[int, ...]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "index" not in reader.fieldnames:
            raise DataError(f"{path} has no 'index' column")
        rows_of: dict[int, int] = {}
        for row_number, row in enumerate(reader, start=2):
            raw = row["index"]
            try:
                j = int(raw)
            except (TypeError, ValueError):
                raise DataError(
                    f"{path} row {row_number}: index {raw!r} is not an integer"
                ) from None
            if not 0 <= j < p:
                raise DataError(
                    f"{path} row {row_number}: index {j} out of range for "
                    f"{p} outcome columns"
                )
            if j in rows_of:
                raise DataError(f"{path} row {row_number}: index {j} is listed "
                                f"twice (first at row {rows_of[j]})")
            rows_of[j] = row_number
    return tuple(rows_of)


def _run_infer(params, outdir: Path) -> None:
    ds = _load_dataset(params)
    subset = _read_selected_indices(params["selection_csv"], ds.p)
    method = _resolve_estimator(params["estimator"], ds)
    est = adjusted_estimate(ds, method, subset) if subset else None
    if est is None:
        _write_rows(outdir / "per_dim.csv", ["index", "label", "tau_hat", "se", "p"], [])
        _write_rows(outdir / "group.csv", ["statistic", "df", "p"],
                    [[_fmt(0.0), 0, _fmt(1.0)]])
        return
    correction = params["correction"]
    if correction is None:
        correction = len(subset)
    pvals = z_pvalues(est, correction=correction, two_sided=params["two_sided"])
    se = np.sqrt(np.diag(est.sigma_hat) / est.n)
    rows = [
        [j, ds.column_labels[j], _fmt(est.tau_hat[k]), _fmt(se[k]), _fmt(pvals[k])]
        for k, j in enumerate(subset)
    ]
    # Computed before any CSV is written: it raises on a singular covariance.
    group = [[_fmt(hotelling_statistic(est)), len(subset), _fmt(hotelling_pvalue(est))]]
    _write_rows(outdir / "per_dim.csv", ["index", "label", "tau_hat", "se", "p"], rows)
    _write_rows(outdir / "group.csv", ["statistic", "df", "p"], group)


def _run_multisplit(params, outdir: Path) -> None:
    ds = _load_dataset(params)
    report = multi_split(
        ds,
        B=params["B"],
        gamma=params["gamma"],
        method=_resolve_estimator(params["estimator"], ds),
        sel=_selection_spec(params),
        seed=params["seed"],
        fraction=params["fraction"],
        two_sided=params["two_sided"],
    )
    counts = np.zeros(ds.p, dtype=np.int64)
    for subset in report.per_split_subsets:
        for j in subset:
            counts[j] += 1
    rows = [
        [j, ds.column_labels[j], _fmt(report.per_dim_aggregated[j]),
         _fmt(counts[j] / report.B)]
        for j in range(ds.p)
    ]
    _write_rows(
        outdir / "multisplit_per_dim.csv",
        ["index", "label", "p", "selection_frequency"],
        rows,
    )
    _write_rows(
        outdir / "multisplit_group.csv",
        ["p", "gamma", "B"],
        [[_fmt(report.group_aggregated), _fmt(report.gamma), report.B]],
    )


def _run_path(params, outdir: Path) -> None:
    ds = _load_dataset(params)
    config = EnetConfig(
        l1_ratio=params["l1_ratio"] if params["l1_ratio"] is not None else 1.0,
        tol=params["tol"],
        max_iter=params["max_iter"],
    )
    path = regularization_path(
        ds,
        n_lambdas=params["n_lambdas"],
        lambda_min_ratio=params["lambda_min_ratio"],
        config=config,
    )
    rows = [
        [k, _fmt(fit.lam), len(fit.active_set), _fmt(fit.weighted_rss),
         fit.iterations, int(fit.converged),
         ";".join(str(j) for j in fit.active_set)]
        for k, fit in enumerate(path.fits)
    ]
    _write_rows(
        outdir / "path.csv",
        ["position", "lambda", "n_active", "weighted_rss", "iterations",
         "converged", "active"],
        rows,
    )


def _run_simulate(params, outdir: Path) -> None:
    methods = _split_names(params["methods"])
    sizes = _split_ints(params["sizes"], "--sizes")
    config = LinearModelConfig(
        n=params["n"], p=params["p"], m=params["m"], s_tau=params["s_tau"],
        alpha=params["alpha"], pi=params["pi"], seed=params["seed"],
    )
    generator = LinearModelGenerator(config)
    common = dict(
        estimator=params["estimator"],
        n_jobs=params["jobs"],
    )
    if params["experiment"] == "recovery":
        results = run_recovery_experiment(
            generator, methods, sizes, params["replicates"], params["seed"], **common
        )
    else:
        results = run_power_experiment(
            generator, methods, sizes, params["replicates"], params["seed"],
            second_sample_size=params["second_sample_size"], **common
        )
    write_metrics_csv(results, outdir / "metrics.csv")


def _run_semisynth(params, outdir: Path) -> None:
    levels = tuple(_split_ints(params["levels"], "--levels"))
    config = TraceExperimentConfig(
        n=params["n"],
        effect_magnitude=params["alpha"],
        seed=params["seed"],
        level_window_minutes=levels,
    )
    results = run_semisynth_experiment(
        config, params["replicates"], params["seed"],
        B=params["B"], gamma=params["gamma"], select_size=params["s"],
        estimator=params["estimator"], n_jobs=params["jobs"],
    )
    write_metrics_csv(results, outdir / "metrics.csv")


_RUNNERS = {
    "select": _run_select,
    "infer": _run_infer,
    "multisplit": _run_multisplit,
    "path": _run_path,
    "simulate": _run_simulate,
    "semisynth": _run_semisynth,
}


def _execute(command: str, params: dict, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    _RUNNERS[command](params, outdir)
    manifest = {"command": command, "params": params, "versions": _versions()}
    with open(outdir / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    click.echo(f"{command}: outputs written to {outdir}")


def _execute_invoked() -> None:
    """Run the invoked click command. Its parameters are the parsed options
    minus ``--outdir``, with the input files resolved to absolute paths."""
    ctx = click.get_current_context()
    params = dict(ctx.params)
    outdir = _resolve_outdir(params.pop("outdir"))
    for name in ("data", "selection_csv"):
        if name in params:
            params[name] = str(Path(params[name]).resolve())
    _execute(ctx.command.name, params, outdir)


# ---------------------------------------------------------------------------
# click wiring


def _schema_options(fn):
    for option in (
        click.option("--covariate-cols", default="", metavar="NAMES",
                     help="Comma-separated covariate columns; 'none' disables "
                          "(default: columns starting with 'x')."),
        click.option("--outcome-cols", default="", metavar="NAMES",
                     help="Comma-separated outcome columns (default: columns "
                          "starting with 'y')."),
        click.option("--treatment-col", default="treatment", show_default=True,
                     help="Treatment indicator column."),
    ):
        fn = option(fn)
    return fn


def _outdir_option(fn):
    return click.option(
        "--outdir", default=None, metavar="DIR",
        help="Output directory (default: $HDTE_OUTDIR, else '.').",
    )(fn)


_data_argument = click.argument(
    "data", type=click.Path(exists=True, dir_okay=False)
)


@click.group()
@click.version_option(_HDTE_VERSION, prog_name="hdte")
def cli():
    """Treatment effect analysis for many outcome dimensions."""


@cli.command()
@_data_argument
@_schema_options
@click.option("--selection", type=click.Choice(["lasso", "enet", "baseline"]),
              default="lasso", show_default=True)
@click.option("--s", type=int, default=None, help="Target subset size.")
@click.option("--lam", type=float, default=None, help="Fixed penalty level.")
@click.option("--l1-ratio", type=float, default=None,
              help="Elastic net mixing (default 1.0 for lasso, 0.5 for enet).")
@click.option("--estimator", type=click.Choice(["dim", "cuped", "lin"]),
              default=None, help="Baseline ranking estimator (default: cuped "
                                 "with covariates, else dim).")
@click.option("--n-lambdas", type=int, default=100, show_default=True)
@click.option("--lambda-min-ratio", type=float, default=None)
@click.option("--tol", type=float, default=1e-7, show_default=True)
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@_outdir_option
def select(**_):
    """Select outcome columns; writes selection.csv."""
    _execute_invoked()


@cli.command()
@_data_argument
@click.argument("selection_csv", type=click.Path(exists=True, dir_okay=False))
@_schema_options
@click.option("--estimator", type=click.Choice(["dim", "cuped", "lin"]),
              default=None, help="Adjustment (default: cuped with covariates, "
                                 "else dim).")
@click.option("--correction", type=int, default=None,
              help="Multiplicity factor (default: subset size).")
@click.option("--two-sided", is_flag=True, help="Double the normal tail.")
@_outdir_option
def infer(**_):
    """Test a selected subset on held-out data; writes per_dim.csv and group.csv.

    DATA should be independent of the sample the selection was computed on;
    reusing the selection sample invalidates the p-values.
    """
    _execute_invoked()


@cli.command()
@_data_argument
@_schema_options
@click.option("--B", "B", type=int, default=50, show_default=True,
              help="Number of random splits.")
@click.option("--gamma", type=float, default=0.05, show_default=True,
              help="Aggregation quantile.")
@click.option("--selection", type=click.Choice(["lasso", "enet", "baseline"]),
              default="lasso", show_default=True)
@click.option("--s", type=int, default=None, help="Target subset size.")
@click.option("--lam", type=float, default=None, help="Fixed penalty level.")
@click.option("--l1-ratio", type=float, default=None)
@click.option("--estimator", type=click.Choice(["dim", "cuped", "lin"]),
              default=None)
@click.option("--fraction", type=float, default=0.5, show_default=True,
              help="Fraction of rows in the selection half.")
@click.option("--two-sided", is_flag=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_outdir_option
def multisplit(**_):
    """Aggregate select-then-test over many random splits."""
    _execute_invoked()


@cli.command()
@_data_argument
@_schema_options
@click.option("--l1-ratio", type=float, default=None,
              help="Elastic net mixing (default 1.0).")
@click.option("--n-lambdas", type=int, default=100, show_default=True)
@click.option("--lambda-min-ratio", type=float, default=None)
@click.option("--tol", type=float, default=1e-7, show_default=True)
@click.option("--max-iter", type=int, default=10_000, show_default=True)
@_outdir_option
def path(**_):
    """Trace the penalty path; writes path.csv."""
    _execute_invoked()


@cli.command()
@click.option("--experiment", type=click.Choice(["recovery", "power"]),
              default="recovery", show_default=True)
@click.option("--n", type=int, default=500, show_default=True)
@click.option("--p", type=int, default=100, show_default=True)
@click.option("--m", type=int, default=10, show_default=True)
@click.option("--s-tau", type=int, default=5, show_default=True)
@click.option("--alpha", type=float, default=0.5, show_default=True,
              help="Treatment effect magnitude.")
@click.option("--pi", type=float, default=0.5, show_default=True,
              help="Treatment probability.")
@click.option("--replicates", type=int, default=20, show_default=True)
@click.option("--sizes", default="1,2,3,4,5", show_default=True)
@click.option("--methods", default="baseline_dim,baseline,lasso,enet",
              show_default=True)
@click.option("--estimator", type=click.Choice(["dim", "cuped", "lin"]),
              default="cuped", show_default=True,
              help="Baseline ranking adjustment.")
@click.option("--second-sample-size", type=int, default=500, show_default=True,
              help="Evaluation sample rows (power experiment).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@_outdir_option
def simulate(**_):
    """Replicated recovery or power experiment on the linear outcome model."""
    _execute_invoked()


@cli.command()
@click.option("--n", type=int, default=200, show_default=True)
@click.option("--alpha", type=float, default=8.0, show_default=True,
              help="Glucose reduction inside the treated window (mg/dL).")
@click.option("--replicates", type=int, default=20, show_default=True)
@click.option("--B", "B", type=int, default=20, show_default=True)
@click.option("--gamma", type=float, default=0.05, show_default=True)
@click.option("--s", type=int, default=1, show_default=True,
              help="Subset size per split.")
@click.option("--levels", default="240,120,60", show_default=True,
              help="Window durations in minutes, coarsest first.")
@click.option("--estimator", type=click.Choice(["dim", "cuped", "lin"]),
              default="lin", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@_outdir_option
def semisynth(**_):
    """Fixed-window versus multi-resolution testing on glucose traces."""
    _execute_invoked()


@cli.command()
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@_outdir_option
def rerun(manifest, outdir):
    """Replay a manifest.json; regenerates its CSVs byte for byte.

    Outputs land next to the manifest unless --outdir says otherwise.
    """
    manifest_path = Path(manifest).resolve()
    try:
        record = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(record, dict) or "command" not in record or "params" not in record:
        raise DataError(f"{manifest_path} lacks 'command'/'params' fields")
    command = record["command"]
    if command not in _RUNNERS:
        raise DataError(f"manifest names unknown command {command!r}")
    target = _resolve_outdir(outdir) if outdir is not None else manifest_path.parent
    _execute(command, record["params"], target)


def _error_record(kind: str, message: str) -> None:
    click.echo(json.dumps({"error": kind, "message": message}), err=True)


def main(argv=None) -> int:
    """Entry point with the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="hdte", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        _error_record("usage", "aborted")
        return 1
    except click.ClickException as exc:
        _error_record("usage", exc.format_message())
        return 1
    except DataError as exc:
        _error_record("data", str(exc))
        return 2
    except NumericalError as exc:
        _error_record("numerical", str(exc))
        return 3
    except HdteError as exc:
        _error_record("data", str(exc))
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
