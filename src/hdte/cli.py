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
from contextlib import suppress
from importlib.metadata import PackageNotFoundError, version as _dist_version
from pathlib import Path

import click
import numpy as np
import scipy

from .data import CsvSchema, load_csv, open_text
from .errors import DataError, HdteError, NumericalError
from .estimators import adjusted_estimate, check_estimator
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
    with open_text(path) as handle:
        header = next(csv.reader(handle), None)
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
    if value is None:
        return ds.usable_estimator("cuped")
    check_estimator(ds, value)
    return value


def _selection_spec(params) -> SelectionSpec:
    """The ``--selection``/``--s``/``--lam``/``--l1-ratio`` options as a spec,
    with ``--tol`` and ``--max-iter`` where the command has them (``select``;
    ``multisplit`` runs with ``EnetConfig``'s defaults)."""
    method = params["selection"]
    if method == "baseline" and params["s"] is None:
        raise DataError("baseline selection needs --s")
    solver = {key: params[key] for key in ("tol", "max_iter") if key in params}
    config = EnetConfig(l1_ratio=method_l1_ratio(method, params["l1_ratio"]), **solver)
    return SelectionSpec(method, params["s"], params["lam"], config=config)


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# click wiring: each parameter that several commands share is declared once

_FILE = click.Path(exists=True, dir_okay=False)
_DATA = click.Argument(["data"], type=_FILE)
_SCHEMA = (
    click.Option(["--treatment-col"], default="treatment", show_default=True,
                 help="Treatment indicator column."),
    click.Option(["--outcome-cols"], default="", metavar="NAMES",
                 help="Comma-separated outcome columns (default: columns "
                      "starting with 'y')."),
    click.Option(["--covariate-cols"], default="", metavar="NAMES",
                 help="Comma-separated covariate columns; 'none' disables "
                      "(default: columns starting with 'x')."),
)
_L1_RATIO = click.Option(["--l1-ratio"], type=float, default=None,
                         help="Elastic net mixing (default 1.0, or 0.5 for an enet "
                              "selection).")
_SELECTION = (
    click.Option(["--selection"], type=click.Choice(["lasso", "enet", "baseline"]),
                 default="lasso", show_default=True),
    click.Option(["--s"], type=int, default=None, help="Target subset size."),
    click.Option(["--lam"], type=float, default=None, help="Fixed penalty level."),
    _L1_RATIO,
)
_GRID = (
    click.Option(["--n-lambdas"], type=int, default=100, show_default=True),
    click.Option(["--lambda-min-ratio"], type=float, default=None),
    click.Option(["--tol"], type=float, default=1e-7, show_default=True,
                 help="Coordinate-descent tolerance of each penalty fit; a lasso "
                      "selection by size reads the path's knots and does not iterate."),
    click.Option(["--max-iter"], type=int, default=10_000, show_default=True,
                 help="Coordinate-descent sweep cap, as for --tol."),
)
_ESTIMATORS = click.Choice(["dim", "cuped", "lin"])
_ADJUSTMENT = click.Option(["--estimator"], type=_ESTIMATORS, default=None,
                           help="Adjustment (default: cuped with covariates, else dim).")
_TWO_SIDED = click.Option(["--two-sided"], is_flag=True, help="Double the normal tail.")
_GAMMA = click.Option(["--gamma"], type=float, default=0.05, show_default=True,
                      help="Aggregation quantile.")
_REPLICATES = click.Option(["--replicates"], type=int, default=20, show_default=True)
_SEED = click.Option(["--seed"], type=int, default=0, show_default=True)
_OUTDIR = click.Option(["--outdir"], default=None, metavar="DIR",
                       help="Output directory (default: $HDTE_OUTDIR, else '.').")


@click.group()
@click.version_option(_HDTE_VERSION, prog_name="hdte")
def cli():
    """Treatment effect analysis for many outcome dimensions."""


class _Analysis(click.Command):
    """An analysis command: ``@cli.command(cls=_Analysis, params=[...])`` on
    a runner ``(params, outdir)`` declares it, with the runner's docstring
    as its help. :func:`_execute` runs the runner and writes the manifest,
    both when the command is invoked and when ``rerun`` replays one."""

    def invoke(self, ctx: click.Context) -> None:
        _execute(self, _command_params(self, ctx.params), _resolve_outdir(ctx.params["outdir"]))


# ---------------------------------------------------------------------------
# the analysis commands (params dicts are JSON round-trippable)


@cli.command(cls=_Analysis, params=[
    _DATA, *_SCHEMA, *_SELECTION,
    click.Option(["--estimator"], type=_ESTIMATORS, default=None,
                 help="Baseline ranking estimator (default: cuped with covariates, "
                      "else dim)."),
    *_GRID, _OUTDIR])
def select(params, outdir: Path) -> None:
    """Select outcome columns; writes selection.csv."""
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


def _read_selected_indices(path, labels: tuple[str, ...]) -> tuple[int, ...]:
    """The outcome indices of a selection CSV's ``index`` column, in row
    order; the file is read as :func:`hdte.data.load_csv` reads its text.
    Where it has a ``label`` column, each row's label, stripped as
    ``load_csv`` matches header names, must be ``labels`` at its index: a
    CSV that orders its outcomes differently is an error, not a test of
    other columns."""
    p = len(labels)
    with open_text(path) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "index" not in reader.fieldnames:
            raise DataError(f"{path} has no 'index' column")
        labelled = "label" in reader.fieldnames
        rows_of: dict[int, int] = {}
        for row_number, row in enumerate(reader, start=2):
            raw = row["index"]
            try:
                j = int(raw)
            except (TypeError, ValueError):
                message = f"{path} row {row_number}: index {raw!r} is not an integer"
                raise DataError(message) from None
            if not 0 <= j < p:
                raise DataError(f"{path} row {row_number}: index {j} out of range for "
                                f"{p} outcome columns")
            if labelled and (row["label"] or "").strip() != labels[j]:
                raise DataError(f"{path} row {row_number}: label {row['label']!r} is not "
                                f"the data's label {labels[j]!r} at index {j}")
            if j in rows_of:
                raise DataError(f"{path} row {row_number}: index {j} is listed "
                                f"twice (first at row {rows_of[j]})")
            rows_of[j] = row_number
    return tuple(rows_of)


@cli.command(cls=_Analysis, params=[
    _DATA, click.Argument(["selection_csv"], type=_FILE), *_SCHEMA, _ADJUSTMENT,
    click.Option(["--correction"], type=int, default=None,
                 help="Multiplicity factor (default: subset size)."),
    _TWO_SIDED, _OUTDIR])
def infer(params, outdir: Path) -> None:
    """Test a selected subset on held-out data; writes per_dim.csv and group.csv.

    DATA should be independent of the sample the selection was computed on;
    reusing the selection sample invalidates the p-values.
    """
    correction = params["correction"]
    if correction is not None and correction < 1:   # as z_pvalues, which an empty subset skips
        raise DataError(f"correction must be >= 1, got {correction}")
    ds = _load_dataset(params)
    subset = _read_selected_indices(params["selection_csv"], ds.column_labels)
    method = _resolve_estimator(params["estimator"], ds)
    rows, group = [], [[_fmt(0.0), 0, _fmt(1.0)]]
    if subset:
        est = adjusted_estimate(ds, method, subset)
        pvals = z_pvalues(est, correction=len(subset) if correction is None else correction,
                          two_sided=params["two_sided"])
        se = np.sqrt(np.diag(est.sigma_hat) / est.n)
        rows = [[j, ds.column_labels[j], _fmt(est.tau_hat[k]), _fmt(se[k]), _fmt(pvals[k])]
                for k, j in enumerate(subset)]
        # Computed before any CSV is written: it raises on a singular covariance.
        group = [[_fmt(hotelling_statistic(est)), len(subset), _fmt(hotelling_pvalue(est))]]
    _write_rows(outdir / "per_dim.csv", ["index", "label", "tau_hat", "se", "p"], rows)
    _write_rows(outdir / "group.csv", ["statistic", "df", "p"], group)


@cli.command(cls=_Analysis, params=[
    _DATA, *_SCHEMA,
    click.Option(["--B", "B"], type=int, default=50, show_default=True,
                 help="Number of random splits."),
    _GAMMA, *_SELECTION, _ADJUSTMENT,
    click.Option(["--fraction"], type=float, default=0.5, show_default=True,
                 help="Fraction of rows in the selection half."),
    _TWO_SIDED, _SEED, _OUTDIR])
def multisplit(params, outdir: Path) -> None:
    """Aggregate select-then-test over many random splits."""
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


@cli.command(cls=_Analysis, params=[_DATA, *_SCHEMA, _L1_RATIO, *_GRID, _OUTDIR])
def path(params, outdir: Path) -> None:
    """Trace the penalty path; writes path.csv."""
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


@cli.command(cls=_Analysis, params=[
    click.Option(["--experiment"], type=click.Choice(["recovery", "power"]),
                 default="recovery", show_default=True),
    click.Option(["--n"], type=int, default=500, show_default=True),
    click.Option(["--p"], type=int, default=100, show_default=True),
    click.Option(["--m"], type=int, default=10, show_default=True),
    click.Option(["--s-tau"], type=int, default=5, show_default=True),
    click.Option(["--alpha"], type=float, default=0.5, show_default=True,
                 help="Treatment effect magnitude."),
    click.Option(["--pi"], type=float, default=0.5, show_default=True,
                 help="Treatment probability."),
    _REPLICATES,
    click.Option(["--sizes"], default="1,2,3,4,5", show_default=True),
    click.Option(["--methods"], default="baseline_dim,baseline,lasso,enet",
                 show_default=True),
    click.Option(["--estimator"], type=_ESTIMATORS, default="cuped", show_default=True,
                 help="Baseline ranking adjustment."),
    click.Option(["--second-sample-size"], type=int, default=500, show_default=True,
                 help="Evaluation sample rows (power experiment)."),
    _SEED, _OUTDIR])
def simulate(params, outdir: Path) -> None:
    """Replicated recovery or power experiment on the linear outcome model."""
    methods = _split_names(params["methods"])
    sizes = _split_ints(params["sizes"], "--sizes")
    config = LinearModelConfig(
        n=params["n"], p=params["p"], m=params["m"], s_tau=params["s_tau"],
        alpha=params["alpha"], pi=params["pi"], seed=params["seed"],
    )
    generator = LinearModelGenerator(config)
    if params["experiment"] == "recovery":
        results = run_recovery_experiment(
            generator, methods, sizes, params["replicates"], params["seed"],
            estimator=params["estimator"],
        )
    else:
        results = run_power_experiment(
            generator, methods, sizes, params["replicates"], params["seed"],
            second_sample_size=params["second_sample_size"], estimator=params["estimator"],
        )
    write_metrics_csv(results, outdir / "metrics.csv")


@cli.command(cls=_Analysis, params=[
    click.Option(["--n"], type=int, default=200, show_default=True),
    click.Option(["--alpha"], type=float, default=8.0, show_default=True,
                 help="Glucose reduction inside the treated window (mg/dL)."),
    _REPLICATES,
    click.Option(["--B", "B"], type=int, default=20, show_default=True),
    _GAMMA,
    click.Option(["--s"], type=int, default=1, show_default=True,
                 help="Subset size per split."),
    click.Option(["--levels"], default="240,120,60", show_default=True,
                 help="Window durations in minutes, coarsest first."),
    click.Option(["--estimator"], type=_ESTIMATORS, default="lin", show_default=True),
    _SEED, _OUTDIR])
def semisynth(params, outdir: Path) -> None:
    """Fixed-window versus multi-resolution testing on glucose traces."""
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
        estimator=params["estimator"],
    )
    write_metrics_csv(results, outdir / "metrics.csv")


def _execute(command: _Analysis, params: dict, outdir: Path) -> None:
    """Run ``command`` into ``outdir``; a failed run removes the directories
    this call made, as far as they are empty."""
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        command.callback(params, outdir)
    except BaseException:
        for directory in made:   # innermost first
            with suppress(OSError):
                directory.rmdir()
        raise
    manifest = {"command": command.name, "params": params, "versions": _versions()}
    with open(outdir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    click.echo(f"{command.name}: outputs written to {outdir}")


# What a numeric parameter takes from a manifest, as from the command line:
# an integer one a JSON integer or a string click parses, a float one any
# JSON number; neither takes a bool.
_NUMBER_KINDS = ((click.types.IntParamType, (int, str)),
                 (click.types.FloatParamType, (int, float)))


def _command_params(command: click.Command, values) -> dict:
    """``values`` (parsed options or a manifest's params) as ``command``'s
    parameters minus ``--outdir``: each cast by its click parameter, input
    files resolved to absolute paths, a missing optional one at its default.
    Other keys (such as an option since removed) are ignored; a missing
    required value, a number of the wrong kind (a bool, or a fraction for an
    integer: the command line rejects ``--s 2.7``) or a value its parameter
    rejects is a :class:`DataError`."""
    if not isinstance(values, dict):
        raise DataError(f"params must be an object, got {values!r}")
    ctx, params = click.Context(command), {}
    for param in command.params:
        if param.name == "outdir":
            continue
        if param.name not in values and param.required:
            raise DataError(f"no value for the required parameter {param.name!r}")
        value = values[param.name] if param.name in values else param.get_default(ctx)
        for kind, accepted in _NUMBER_KINDS:
            if isinstance(param.type, kind) and value is not None and (
                    isinstance(value, bool) or not isinstance(value, accepted)):
                raise DataError(f"parameter {param.name!r}: {value!r} is not "
                                f"a valid {param.type.name}")
        try:
            if isinstance(param.type, click.Path):
                value = str(Path(value).resolve())
            params[param.name] = param.type_cast_value(ctx, value)
        except (click.BadParameter, TypeError) as exc:
            message = exc.format_message() if isinstance(exc, click.BadParameter) else exc
            raise DataError(f"parameter {param.name!r}: {message}") from None
    return params


@cli.command(params=[click.Argument(["manifest"], type=_FILE), _OUTDIR])
def rerun(manifest, outdir):
    """Replay a manifest.json; regenerates its CSVs byte for byte.

    Outputs land next to the manifest unless --outdir says otherwise.
    """
    manifest_path = Path(manifest).resolve()
    try:
        with open_text(manifest_path) as handle:
            record = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(record, dict) or "command" not in record or "params" not in record:
        raise DataError(f"{manifest_path} lacks 'command'/'params' fields")
    command = cli.commands.get(record["command"])
    if not isinstance(command, _Analysis):
        raise DataError(f"manifest names unknown command {record['command']!r}")
    params = _command_params(command, record["params"])
    target = _resolve_outdir(outdir) if outdir is not None else manifest_path.parent
    _execute(command, params, target)


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
    except NumericalError as exc:
        _error_record("numerical", str(exc))
        return 3
    except HdteError as exc:
        _error_record("data", str(exc))
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
