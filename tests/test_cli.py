import csv
import json
import re

import numpy as np
import pytest

from hdte import inference
from hdte.cli import _load_dataset, cli, main
from hdte.data import TrialDataset, write_csv

from conftest import split_route


@pytest.fixture
def trial_csv(tmp_path):
    """120-row dataset with a planted effect on y0 and y1 plus 2 covariates."""
    return _write_trial(tmp_path / "trial.csv", seed=0)


@pytest.fixture
def holdout_csv(tmp_path):
    return _write_trial(tmp_path / "holdout.csv", seed=1)


def _write_trial(path, seed, n=120, p=4, m=2, effect=1.5):
    rng = np.random.default_rng(seed)
    t = np.array([1, 0] * (n // 2))
    rng.shuffle(t)
    x = rng.standard_normal((n, m))
    y = rng.standard_normal((n, p)) + x @ rng.uniform(0.2, 0.8, (m, p))
    y[:, :2] += effect * t[:, None]
    write_csv(TrialDataset(t, y, x), path)
    return path


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_select_writes_selection_and_manifest(trial_csv, tmp_path):
    outdir = tmp_path / "sel"
    code = main(["select", str(trial_csv), "--s", "2", "--outdir", str(outdir)])
    assert code == 0
    rows = _read_rows(outdir / "selection.csv")
    assert len(rows) == 2
    assert {r["index"] for r in rows} == {"0", "1"}
    assert rows[0]["method"] == "lasso"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "select"
    assert manifest["params"]["s"] == 2
    assert "numpy" in manifest["versions"]


@pytest.mark.parametrize("header, encoding", [
    ("treatment,y0,y1,y2,x0", "utf-8-sig"),
    ("treatment, y0, y1 ,y2,\tx0", "utf-8"),
])
def test_header_names_are_found_with_a_bom_or_padding(tmp_path, header, encoding):
    """A byte-order mark, or spaces around header names, changes neither the
    columns found by the y/x prefixes nor the selection."""
    rng = np.random.default_rng(3)
    t = np.array([1, 0] * 40)
    y = rng.standard_normal((80, 3))
    y[:, 1] += 1.5 * t
    x = rng.standard_normal(80).tolist()
    lines = [header] + [",".join([str(ti), *map(repr, row), repr(xi)])
                        for ti, row, xi in zip(t.tolist(), y.tolist(), x)]
    path = tmp_path / "trial.csv"
    path.write_text("\n".join(lines) + "\n", encoding=encoding)
    ds = _load_dataset({"data": str(path), "treatment_col": "treatment",
                        "outcome_cols": None, "covariate_cols": None})
    assert ds.column_labels == ("y0", "y1", "y2")
    assert ds.covariates[:, 0].tolist() == x
    outdir = tmp_path / "sel"
    assert main(["select", str(path), "--s", "1", "--outdir", str(outdir)]) == 0
    (row,) = _read_rows(outdir / "selection.csv")
    assert (row["index"], row["label"]) == ("1", "y1")


def test_outcome_cols_loads_exactly_the_named_columns(trial_csv, tmp_path):
    """``--outcome-cols y1,y3`` gives two outcome columns in that order, so
    the planted ``y1`` is selected as index 0."""
    outdir = tmp_path / "sel"
    assert main(["select", str(trial_csv), "--outcome-cols", "y1,y3", "--s", "1",
                 "--outdir", str(outdir)]) == 0
    (row,) = _read_rows(outdir / "selection.csv")
    assert (row["index"], row["label"]) == ("0", "y1")


def test_a_missing_outcome_column_exits_2(trial_csv, tmp_path, capsys):
    assert main(["select", str(trial_csv), "--outcome-cols", "y1,nope", "--s", "1",
                 "--outdir", str(tmp_path / "sel")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data" and "'nope' not found" in record["message"]


def test_covariate_cols_takes_an_explicit_list(trial_csv):
    """Named covariates replace the ``x`` prefix convention; the outcomes
    are still found by theirs."""
    ds = _load_dataset({"data": str(trial_csv), "treatment_col": "treatment",
                        "outcome_cols": "", "covariate_cols": "x1"})
    full = _load_dataset({"data": str(trial_csv), "treatment_col": "treatment",
                          "outcome_cols": "", "covariate_cols": ""})
    assert ds.column_labels == full.column_labels == ("y0", "y1", "y2", "y3")
    assert ds.covariates.shape == (120, 1) and full.covariates.shape == (120, 2)
    assert ds.covariates[:, 0].tobytes() == full.covariates[:, 1].tobytes()


@pytest.mark.parametrize("where", ["header", "body"])
def test_a_csv_that_is_not_utf8_is_a_data_error(trial_csv, tmp_path, capsys, where):
    """A 0xff byte in the header, or in the last row of a file long enough
    that the header decodes cleanly and only the loader meets it, exits 2."""
    raw = trial_csv.read_bytes()
    assert len(raw) > 8192   # one decoding chunk
    if where == "header":
        raw = raw.replace(b"y1", b"y1\xff", 1)
    else:
        raw = raw.rstrip(b"\n") + b"\xff\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    code = main(["select", str(path), "--s", "1", "--outdir", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data"
    assert "not UTF-8" in record["message"] and "bad.csv" in record["message"]


def test_select_baseline_needs_size(trial_csv, tmp_path, capsys):
    code = main(["select", str(trial_csv), "--selection", "baseline",
                 "--outdir", str(tmp_path / "out")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data"
    assert "--s" in record["message"]


def test_select_then_infer_pipeline(trial_csv, holdout_csv, tmp_path):
    sel_dir = tmp_path / "sel"
    inf_dir = tmp_path / "inf"
    assert main(["select", str(trial_csv), "--s", "2",
                 "--outdir", str(sel_dir)]) == 0
    assert main(["infer", str(holdout_csv), str(sel_dir / "selection.csv"),
                 "--outdir", str(inf_dir)]) == 0
    per_dim = _read_rows(inf_dir / "per_dim.csv")
    assert [r["index"] for r in per_dim] == ["0", "1"]
    for row in per_dim:
        assert float(row["p"]) < 0.01
        assert float(row["se"]) > 0
    group = _read_rows(inf_dir / "group.csv")[0]
    assert group["df"] == "2"
    assert float(group["p"]) < 1e-6


def test_infer_empty_selection(trial_csv, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("rank,index,label\n")
    outdir = tmp_path / "inf"
    assert main(["infer", str(trial_csv), str(empty),
                 "--outdir", str(outdir)]) == 0
    assert _read_rows(outdir / "per_dim.csv") == []
    group = _read_rows(outdir / "group.csv")[0]
    assert group == {"statistic": "0.0", "df": "0", "p": "1.0"}


@pytest.mark.parametrize("correction", ["0", "-3"])
@pytest.mark.parametrize("selected", ["", "0\n"], ids=["empty", "one-row"])
def test_infer_checks_the_correction_whatever_the_selection(trial_csv, tmp_path, capsys,
                                                            correction, selected):
    """A correction under 1 is a data error with ``z_pvalues``' message,
    also where an empty selection leaves no p-value to correct: exit 2 and
    no output."""
    sel = tmp_path / "sel.csv"
    sel.write_text("index\n" + selected)
    outdir = tmp_path / "inf"
    code = main(["infer", str(trial_csv), str(sel), "--correction", correction,
                 "--outdir", str(outdir)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": f"correction must be >= 1, got {correction}"}
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["select", "--s", "2", "--selection", "baseline"],
    ["select", "--s", "2"],
    ["select", "--lam", "0.1"],
    ["infer", "SELECTION"],
    ["multisplit", "--B", "6", "--s", "2"],
])
def test_an_adjustment_without_covariates_is_a_data_error(tmp_path, capsys, argv):
    """``--estimator lin`` on a covariate-free CSV exits 2, before writing
    anything, from the commands that would ignore it: a selection that
    ranks unadjusted or does not estimate (while its manifest recorded
    ``lin``), and a test of an empty selection. ``multisplit``, which
    adjusts on every split, gives the same error."""
    rng = np.random.default_rng(2)
    t = np.array([1, 0] * 30)
    data = tmp_path / "plain.csv"
    write_csv(TrialDataset(t, rng.standard_normal((60, 4))), data)
    sel = tmp_path / "sel.csv"
    sel.write_text("index\n")
    argv = [str(sel) if arg == "SELECTION" else arg for arg in argv]
    outdir = tmp_path / "out"
    code = main([argv[0], str(data), *argv[1:], "--estimator", "lin",
                 "--outdir", str(outdir)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": "dataset has no covariates to adjust on"}
    assert not outdir.exists()


def test_infer_rejects_bad_selection_file(trial_csv, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index\n9\n")
    code = main(["infer", str(trial_csv), str(bad), "--outdir", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert "row 2" in record["message"] and "out of range" in record["message"]

    no_col = tmp_path / "nocol.csv"
    no_col.write_text("rank,label\n0,y0\n")
    assert main(["infer", str(trial_csv), str(no_col),
                 "--outdir", str(tmp_path / "o2")]) == 2


def test_infer_rejects_a_repeated_index(trial_csv, tmp_path, capsys):
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("index\n1\n0\n1\n")
    outdir = tmp_path / "o"
    code = main(["infer", str(trial_csv), str(repeated), "--outdir", str(outdir)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data"
    assert "row 4: index 1 is listed twice (first at row 2)" in record["message"]
    assert not outdir.exists()


def test_infer_checks_the_selection_labels_against_the_data(trial_csv, tmp_path, capsys):
    """A selection CSV's labels must name the data's outcomes at its
    indices, matched stripped as header names are: on a CSV that orders its
    outcomes the other way, ``infer`` exits 2 before writing anything."""
    sel_dir = tmp_path / "sel"
    assert main(["select", str(trial_csv), "--s", "1", "--outdir", str(sel_dir)]) == 0
    selection = sel_dir / "selection.csv"
    (row,) = _read_rows(selection)
    with open(trial_csv, newline="") as handle:
        rows = list(csv.reader(handle))
    outcomes = [k for k, name in enumerate(rows[0]) if name.startswith("y")]
    order = [0, *outcomes[::-1], *(k for k in range(1, len(rows[0])) if k not in outcomes)]
    reordered = tmp_path / "reordered.csv"
    with open(reordered, "w", newline="") as handle:
        csv.writer(handle).writerows([[r[k] for k in order] for r in rows])
    outdir = tmp_path / "inf"
    assert main(["infer", str(reordered), str(selection), "--outdir", str(outdir)]) == 2
    j = int(row["index"])
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": (
        f"{selection} row 2: label {row['label']!r} is not the data's label "
        f"'y{len(outcomes) - 1 - j}' at index {j}")}
    assert not outdir.exists()

    padded = tmp_path / "padded.csv"
    padded.write_text(f"index,label\n{j}, {row['label']} \n")
    for name, sel in (("inf", selection), ("padded", padded)):
        assert main(["infer", str(trial_csv), str(sel), "--outdir", str(tmp_path / name)]) == 0
    assert ((tmp_path / "inf" / "per_dim.csv").read_bytes()
            == (tmp_path / "padded" / "per_dim.csv").read_bytes())


def test_infer_singular_covariance_is_a_numerical_error(tmp_path, capsys):
    rng = np.random.default_rng(5)
    t = np.array([1, 0] * 20)
    y = rng.standard_normal((40, 1))
    data = tmp_path / "dup.csv"
    write_csv(TrialDataset(t, np.hstack([y, y])), data)
    sel = tmp_path / "sel.csv"
    sel.write_text("index\n0\n1\n")
    outdir = tmp_path / "o"
    code = main(["infer", str(data), str(sel), "--outdir", str(outdir)])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert not outdir.exists()


def test_select_nonconvergence_is_a_numerical_error(trial_csv, tmp_path, capsys):
    """The selections that run coordinate descent, an elastic-net size
    selection and a penalty selection, exit 3 at the sweep cap."""
    for tuning in (["--selection", "enet", "--s", "2"], ["--lam", "0.1"]):
        code = main(["select", str(trial_csv), *tuning, "--max-iter", "1",
                     "--outdir", str(tmp_path / "o")])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "numerical"
        assert "did not converge" in record["message"]


def test_a_lasso_size_selection_ignores_the_sweep_cap(trial_csv, tmp_path):
    """A lasso ``--s`` selection reads the path's knots, so ``--max-iter 1``
    writes the selection the default cap writes."""
    written = []
    for cap in ("1", "10000"):
        outdir = tmp_path / cap
        assert main(["select", str(trial_csv), "--s", "2", "--max-iter", cap,
                     "--outdir", str(outdir)]) == 0
        written.append((outdir / "selection.csv").read_bytes())
    assert written[0] == written[1]


def test_multisplit_outputs(trial_csv, tmp_path):
    outdir = tmp_path / "ms"
    code = main(["multisplit", str(trial_csv), "--B", "6", "--s", "2",
                 "--seed", "4", "--outdir", str(outdir)])
    assert code == 0
    per_dim = _read_rows(outdir / "multisplit_per_dim.csv")
    assert len(per_dim) == 4
    freqs = {r["index"]: float(r["selection_frequency"]) for r in per_dim}
    assert freqs["0"] > 0.5 and freqs["1"] > 0.5
    for row in per_dim:
        assert 0.0 <= float(row["p"]) <= 1.0
    group = _read_rows(outdir / "multisplit_group.csv")[0]
    assert group["B"] == "6"
    assert float(group["p"]) <= 1.0


def test_path_output(trial_csv, tmp_path):
    outdir = tmp_path / "path"
    code = main(["path", str(trial_csv), "--n-lambdas", "20",
                 "--outdir", str(outdir)])
    assert code == 0
    rows = _read_rows(outdir / "path.csv")
    assert len(rows) == 20
    assert rows[0]["position"] == "0" and rows[0]["n_active"] == "0"
    lams = [float(r["lambda"]) for r in rows]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    last_active = rows[-1]["active"].split(";")
    assert "0" in last_active and "1" in last_active


@pytest.mark.parametrize("option, message", [
    (["--n-lambdas", "1"], "n_lambdas must be >= 2, got 1"),
    (["--lambda-min-ratio", "1.5"], "lambda_min_ratio must be in (0, 1), got 1.5"),
], ids=["n-lambdas", "lambda-min-ratio"])
def test_path_with_a_bad_grid_exits_2(trial_csv, tmp_path, capsys, option, message):
    assert main(["path", str(trial_csv), *option, "--outdir", str(tmp_path / "path")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": message}


def test_path_on_constant_outcomes_exits_3(tmp_path, capsys):
    """With every outcome column constant no column is penalized, so the
    grid's top penalty is zero: a numerical error, and no path.csv."""
    path = tmp_path / "constant.csv"
    path.write_text("treatment,y0,y1\n" + "1,1.0,2.0\n0,1.0,2.0\n" * 5)
    outdir = tmp_path / "path"
    assert main(["path", str(path), "--outdir", str(outdir)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical" and "lambda_max is zero" in record["message"]
    assert not (outdir / "path.csv").exists()


def test_simulate_recovery(tmp_path):
    outdir = tmp_path / "sim"
    code = main([
        "simulate", "--n", "80", "--p", "6", "--m", "2", "--s-tau", "2",
        "--alpha", "1.5", "--replicates", "3", "--sizes", "1,2",
        "--methods", "baseline_dim,lasso", "--outdir", str(outdir),
    ])
    assert code == 0
    rows = _read_rows(outdir / "metrics.csv")
    assert {r["method"] for r in rows} == {"baseline_dim", "lasso"}
    assert all(r["metric"] == "recovery_rate" for r in rows)
    assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)


def test_simulate_rejects_a_size_beyond_p(tmp_path, capsys):
    """A size no replicate can select is an error in the call, raised before
    the first replicate: exit 2 and no metrics.csv."""
    outdir = tmp_path / "sim"
    code = main(["simulate", "--p", "5", "--sizes", "9", "--replicates", "1",
                 "--outdir", str(outdir)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": "sizes must be within [1, p=5], got [9]"}
    assert not outdir.exists()


def test_simulate_power_without_covariates_tests_unadjusted(tmp_path):
    """Without covariates the power test is unadjusted, so a covariate-free
    model's replicates reach the test instead of all failing."""
    outdir = tmp_path / "sim"
    assert main(["simulate", "--experiment", "power", "--m", "0", "--p", "6", "--n", "60",
                 "--replicates", "2", "--sizes", "1", "--methods", "lasso",
                 "--second-sample-size", "60", "--outdir", str(outdir)]) == 0
    (row,) = _read_rows(outdir / "metrics.csv")
    assert (row["method"], row["size"], row["metric"]) == ("lasso", "1", "power")
    assert (row["replicates"], row["failures"]) == ("2", "0")


def test_a_failed_command_removes_only_the_directories_it_made(trial_csv, tmp_path, capsys):
    """A failed command leaves no output directory it created, parents
    included; one that existed before stays, with its files."""
    nested = tmp_path / "a" / "b"
    assert main(["select", str(trial_csv), "--lam", "-1", "--outdir", str(nested)]) == 2
    assert not (tmp_path / "a").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "note.txt").write_text("x", encoding="utf-8")
    assert main(["select", str(trial_csv), "--lam", "-1", "--outdir", str(kept / "o")]) == 2
    assert [path.name for path in kept.iterdir()] == ["note.txt"]
    assert main(["select", str(trial_csv), "--lam", "-1", "--outdir", str(kept)]) == 2
    assert [path.name for path in kept.iterdir()] == ["note.txt"]


def test_simulate_rejects_unknown_method(tmp_path, capsys):
    code = main(["simulate", "--methods", "ridge",
                 "--outdir", str(tmp_path / "sim")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert "ridge" in record["message"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--sizes", "1,x"],
    ["semisynth", "--levels", "60,x"],
])
def test_a_list_option_that_is_not_integers_is_a_data_error(tmp_path, capsys, argv):
    code = main([*argv, "--outdir", str(tmp_path / "out")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data"
    assert f"{argv[1]} takes comma-separated integers, got '{argv[2]}'" in record["message"]


@pytest.mark.parametrize("argv, message", [
    (["semisynth", "--replicates", "0"], "replicates must be >= 1, got 0"),
    (["simulate", "--replicates", "-1"], "replicates must be >= 1, got -1"),
    (["simulate", "--experiment", "power", "--n", "40", "--p", "5", "--m", "1",
      "--replicates", "3", "--sizes", "1", "--methods", "lasso", "--second-sample-size", "3"],
     "second_sample_size must be >= 4, got 3"),
])
def test_experiments_without_a_replicate_exit_2(tmp_path, capsys, argv, message):
    """No replicate, or a second sample too small to draw, is a data error:
    nothing is run and the output directory is removed."""
    outdir = tmp_path / "out"
    assert main([*argv, "--outdir", str(outdir)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": message}
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["multisplit", "%s", "--s", "1", "--B", "2"],
    ["simulate", "--n", "40", "--p", "5", "--m", "1", "--replicates", "1", "--sizes", "1",
     "--methods", "lasso"],
    ["semisynth", "--n", "20", "--replicates", "1", "--B", "2"],
], ids=["multisplit", "simulate", "semisynth"])
def test_a_negative_seed_exits_2(trial_csv, tmp_path, capsys, argv):
    """A seed numpy would reject is a one-line data error, raised before the
    first split or replicate, and the output directory is removed."""
    outdir = tmp_path / "out"
    argv = [str(trial_csv) if arg == "%s" else arg for arg in argv]
    assert main([*argv, "--seed", "-1", "--outdir", str(outdir)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": "seed must be >= 0, got -1"}
    assert not outdir.exists()


@pytest.mark.parametrize("option, message", [
    (["--s", "0"], "sizes must be within [1, p=6], got [0]"),
    (["--s", "7"], "sizes must be within [1, p=6], got [7]"),
    (["--B", "0"], "B must be >= 1, got 0"),
    (["--gamma", "2"], "gamma must be in (0, 1), got 2.0"),
], ids=["size-0", "size-7", "no-split", "gamma-2"])
def test_semisynth_rejects_a_pipeline_it_cannot_run(tmp_path, capsys, option, message):
    """A size beyond the coarsest level's 6 windows, no split or a ``gamma``
    outside (0, 1) would fail the proposed pipeline in every replicate: it
    is a data error with ``multi_split``'s message, raised before the first
    replicate, and no metrics.csv is written."""
    outdir = tmp_path / "out"
    argv = ["semisynth", "--n", "60", "--replicates", "2", "--B", "4", *option]
    assert main([*argv, "--outdir", str(outdir)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": message}
    assert not (outdir / "metrics.csv").exists()


def test_multisplit_with_gamma_outside_the_unit_interval_exits_2(trial_csv, tmp_path, capsys,
                                                                monkeypatch):
    splits = []
    monkeypatch.setattr(inference, "_split_report", lambda *args: splits.append(args))
    code = main(["multisplit", str(trial_csv), "--B", "10", "--s", "1", "--gamma", "1.5",
                 "--outdir", str(tmp_path / "ms")])
    assert code == 2 and not splits
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": "gamma must be in (0, 1), got 1.5"}


def test_semisynth_small_run(tmp_path):
    outdir = tmp_path / "ss"
    code = main([
        "semisynth", "--n", "80", "--alpha", "20", "--replicates", "2",
        "--B", "4", "--gamma", "0.25", "--estimator", "dim",
        "--outdir", str(outdir),
    ])
    assert code == 0
    rows = _read_rows(outdir / "metrics.csv")
    methods = {r["method"] for r in rows}
    assert {"fixed_240min", "fixed_120min", "proposed"} <= methods


def test_an_arm_that_failed_in_every_replicate_keeps_its_row(tmp_path):
    """The proposed arm fails in all 3 replicates here (at n = 60 a split
    half's 24 finest-level covariates are collinear); metrics.csv still has
    its row, with size, metric and value empty, and ``rerun`` writes the
    same bytes."""
    outdir = tmp_path / "ss"
    assert main(["semisynth", "--n", "60", "--alpha", "20", "--replicates", "3",
                 "--B", "8", "--gamma", "0.25", "--estimator", "dim",
                 "--outdir", str(outdir)]) == 0
    written = (outdir / "metrics.csv").read_bytes()
    assert written.decode().splitlines() == [
        "method,size,metric,value,replicates,failures",
        "fixed_240min,,power,0.0,3,0",
        "fixed_120min,,power,0.0,3,0",
        "proposed,,,,3,3",
    ]
    replay = tmp_path / "replay"
    assert main(["rerun", str(outdir / "manifest.json"), "--outdir", str(replay)]) == 0
    assert (replay / "metrics.csv").read_bytes() == written


def test_rerun_reproduces_bytes(trial_csv, tmp_path):
    outdir = tmp_path / "sel"
    assert main(["select", str(trial_csv), "--s", "2",
                 "--outdir", str(outdir)]) == 0
    original = (outdir / "selection.csv").read_bytes()
    replay = tmp_path / "replay"
    assert main(["rerun", str(outdir / "manifest.json"),
                 "--outdir", str(replay)]) == 0
    assert (replay / "selection.csv").read_bytes() == original
    # default target is the manifest's own directory
    assert main(["rerun", str(outdir / "manifest.json")]) == 0
    assert (outdir / "selection.csv").read_bytes() == original


def test_rerun_multisplit_reproduces_bytes(trial_csv, tmp_path):
    outdir = tmp_path / "ms"
    assert main(["multisplit", str(trial_csv), "--B", "5", "--s", "1",
                 "--outdir", str(outdir)]) == 0
    original = (outdir / "multisplit_per_dim.csv").read_bytes()
    replay = tmp_path / "replay"
    assert main(["rerun", str(outdir / "manifest.json"),
                 "--outdir", str(replay)]) == 0
    assert (replay / "multisplit_per_dim.csv").read_bytes() == original


def test_multisplit_writes_the_same_bytes_with_shared_splits(trial_csv, tmp_path, monkeypatch):
    """Splits shared with forked children give the serial files byte for byte."""
    written = []
    for cpus in (2, 1):
        outdir = tmp_path / f"ms{cpus}"
        with monkeypatch.context() as patch:
            forks = split_route(patch, cpus)
            assert main(["multisplit", str(trial_csv), "--B", "9", "--s", "2",
                         "--estimator", "cuped", "--outdir", str(outdir)]) == 0
        assert len(forks) == cpus - 1
        written.append({name: (outdir / name).read_bytes() for name in
                        ("multisplit_per_dim.csv", "multisplit_group.csv", "manifest.json")})
    assert written[0] == written[1]


_EXPERIMENTS = {
    "recovery": ["simulate", "--experiment", "recovery", "--n", "60", "--p", "10", "--m", "2",
                 "--s-tau", "3", "--replicates", "4", "--sizes", "1,3",
                 "--methods", "baseline,lasso"],
    "power": ["simulate", "--experiment", "power", "--n", "60", "--p", "10", "--m", "2",
              "--s-tau", "3", "--replicates", "4", "--sizes", "1,3",
              "--methods", "baseline,lasso", "--second-sample-size", "60"],
    "semisynth": ["semisynth", "--n", "80", "--alpha", "25", "--replicates", "3", "--B", "8",
                  "--gamma", "0.25", "--estimator", "dim"],
}


@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_experiments_write_the_same_metrics_with_shared_replicates(tmp_path, monkeypatch,
                                                                   experiment):
    """Replicates shared with a forked child give the serial metrics.csv
    byte for byte; the semisynth replicates' multi-splits of 8 splits fork
    nothing more here."""
    written = []
    for cpus in (2, 1):
        outdir = tmp_path / f"out{cpus}"
        with monkeypatch.context() as patch:
            forks = split_route(patch, cpus)
            assert main([*_EXPERIMENTS[experiment], "--outdir", str(outdir)]) == 0
        assert len(forks) == cpus - 1
        written.append((outdir / "metrics.csv").read_bytes())
    assert written[0] == written[1]


# The params and metrics.csv of manifests written when the experiment
# commands took a ``--jobs`` option, here run with ``--jobs 2``.
_JOBS_MANIFESTS = {
    "simulate": (
        {"alpha": 0.5, "estimator": "cuped", "experiment": "recovery", "jobs": 2, "m": 2,
         "methods": "baseline,lasso", "n": 60, "p": 10, "pi": 0.5, "replicates": 4,
         "s_tau": 3, "second_sample_size": 500, "seed": 0, "sizes": "1,3"},
        "method,size,metric,value,replicates,failures\r\n"
        "baseline,1,recovery_rate,1.0,4,0\r\n"
        "baseline,3,recovery_rate,0.8333333333333334,4,0\r\n"
        "lasso,1,recovery_rate,1.0,4,0\r\n"
        "lasso,3,recovery_rate,0.75,4,0\r\n"),
    "semisynth": (
        {"B": 8, "alpha": 25.0, "estimator": "dim", "gamma": 0.25, "jobs": 2,
         "levels": "240,120,60", "n": 80, "replicates": 3, "s": 1, "seed": 0},
        "method,size,metric,value,replicates,failures\r\n"
        "fixed_240min,,power,0.0,3,0\r\n"
        "fixed_120min,,power,0.3333333333333333,3,0\r\n"
        "proposed,,power,0.0,3,1\r\n"),
}


@pytest.mark.parametrize("command", sorted(_JOBS_MANIFESTS))
def test_rerun_replays_a_manifest_that_records_jobs(tmp_path, monkeypatch, command):
    """A manifest's ``jobs`` is ignored: the replicates follow the affinity
    set, and either route replays the recorded metrics.csv byte for byte."""
    params, metrics = _JOBS_MANIFESTS[command]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command, "params": params}))
    for cpus in (2, 1):
        outdir = tmp_path / f"replay{cpus}"
        with monkeypatch.context() as patch:
            forks = split_route(patch, cpus)
            assert main(["rerun", str(manifest), "--outdir", str(outdir)]) == 0
        assert len(forks) == cpus - 1
        assert (outdir / "metrics.csv").read_bytes() == metrics.encode()


@pytest.mark.parametrize("text, message", [
    ('{"command": "select"}', "lacks 'command'/'params' fields"),
    ("not json", "is not valid JSON"),
    ('{"command": "bogus", "params": {}}', "manifest names unknown command 'bogus'"),
    ('{"command": "select", "params": {}}', "no value for the required parameter 'data'"),
    ('{"command": "select", "params": {"data": 5}}', "parameter 'data': "),
    ('{"command": "select", "params": {"data": "%s", "s": [2]}}', "parameter 's': "),
    ('{"command": "select", "params": {"data": "%s", "selection": "ridge"}}',
     "parameter 'selection': "),
    ('{"command": "select", "params": [1]}', "params must be an object, got [1]"),
    ('{"command": "select", "params": {"data": "%s", "s": 2.7}}',
     "parameter 's': 2.7 is not a valid integer"),
    ('{"command": "select", "params": {"data": "%s", "s": true}}',
     "parameter 's': True is not a valid integer"),
    ('{"command": "select", "params": {"data": "%s", "lam": false}}',
     "parameter 'lam': False is not a valid float"),
    ('{"command": "select", "params": {"data": "%s", "lam": "0.1"}}',
     "parameter 'lam': '0.1' is not a valid float"),
], ids=["no-params", "not-json", "unknown-command", "no-data", "data-not-a-path",
        "size-not-an-integer", "unknown-selection", "params-not-an-object",
        "size-a-fraction", "size-a-bool", "penalty-a-bool", "penalty-a-string"])
def test_rerun_rejects_broken_manifest(trial_csv, tmp_path, capsys, text, message):
    """A manifest that cannot be replayed, including a parameter missing or of
    the wrong type, is a one-line data error that writes nothing."""
    bad = tmp_path / "manifest.json"
    bad.write_text(text.replace("%s", str(trial_csv)))
    assert main(["rerun", str(bad), "--outdir", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data" and message in record["message"]
    assert not (tmp_path / "out").exists()



def test_rerun_skips_a_byte_order_mark(trial_csv, tmp_path):
    """A manifest is read as a data CSV is: a leading byte-order mark, as an
    editor may add on saving it, is skipped."""
    outdir = tmp_path / "sel"
    assert main(["select", str(trial_csv), "--s", "2", "--outdir", str(outdir)]) == 0
    manifest = outdir / "manifest.json"
    manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    assert main(["rerun", str(manifest), "--outdir", str(tmp_path / "again")]) == 0
    assert ((tmp_path / "again" / "selection.csv").read_bytes()
            == (outdir / "selection.csv").read_bytes())


@pytest.mark.parametrize("command", ["rerun", "infer"])
def test_a_manifest_or_selection_that_is_not_utf8_is_a_data_error(trial_csv, tmp_path, capsys,
                                                                   command):
    """A 0xff byte in a manifest, or in a selection CSV, exits 2 with the
    one-line error that a data CSV's bad byte gives."""
    bad = tmp_path / "bad.input"
    if command == "rerun":
        bad.write_bytes(b"\xff{}")
        argv = ["rerun", str(bad)]
    else:
        bad.write_bytes(b"index\n\xff")
        argv = ["infer", str(trial_csv), str(bad)]
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data",
                      "message": f"{bad} is not UTF-8 text (invalid start byte)"}
    assert not list((tmp_path / "out").glob("*"))


def test_select_on_an_empty_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    assert main(["select", str(empty), "--s", "1", "--outdir", str(tmp_path / "o")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {"error": "data", "message": f"{empty} is empty"}

# The params and output files of a multisplit manifest written before
# ``multisplit`` read the solver's tol and max_iter from ``EnetConfig``.
_OLD_MULTISPLIT = (
    {"B": 5, "covariate_cols": "", "estimator": None, "fraction": 0.5, "gamma": 0.05,
     "l1_ratio": None, "lam": 0.05, "outcome_cols": "", "s": None, "seed": 0,
     "selection": "enet", "treatment_col": "treatment", "two_sided": False},
    {"multisplit_per_dim.csv": "index,label,p,selection_frequency\r\n"
                               "0,y0,8.799539141933429e-10,1.0\r\n"
                               "1,y1,7.457995867366933e-13,1.0\r\n"
                               "2,y2,1.0,1.0\r\n3,y3,1.0,1.0\r\n",
     "multisplit_group.csv": "p,gamma,B\r\n2.5237158794972797e-28,0.05,5\r\n"},
)


def test_rerun_replays_an_old_multisplit_manifest(trial_csv, tmp_path):
    """An elastic-net multisplit, whose penalty fits iterate, replays its
    recorded files byte for byte with the solver defaults."""
    params, files = _OLD_MULTISPLIT
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "multisplit",
                                    "params": dict(params, data=str(trial_csv))}))
    assert main(["rerun", str(manifest), "--outdir", str(tmp_path / "replay")]) == 0
    for name, text in files.items():
        assert (tmp_path / "replay" / name).read_bytes() == text.encode()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["select", str(tmp_path / "missing.csv")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "usage"
    assert main(["no-such-command"]) == 1


def test_outdir_env_fallback(trial_csv, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("HDTE_OUTDIR", str(target))
    assert main(["select", str(trial_csv), "--s", "1"]) == 0
    assert (target / "selection.csv").exists()


def test_version_and_help_exit_0(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "select" in out and "multisplit" in out


# Each command's parameters in order: name, opts, type name, default (none
# for a required argument), flag-ness and required-ness.
_SCHEMA = [("treatment_col", ("--treatment-col",), "text", "treatment", False, False),
           ("outcome_cols", ("--outcome-cols",), "text", "", False, False),
           ("covariate_cols", ("--covariate-cols",), "text", "", False, False)]
_DATA = [("data", ("data",), "file", None, False, True), *_SCHEMA]
_SELECTION = [("selection", ("--selection",), "choice", "lasso", False, False),
              ("s", ("--s",), "integer", None, False, False),
              ("lam", ("--lam",), "float", None, False, False),
              ("l1_ratio", ("--l1-ratio",), "float", None, False, False)]
_GRID = [("n_lambdas", ("--n-lambdas",), "integer", 100, False, False),
         ("lambda_min_ratio", ("--lambda-min-ratio",), "float", None, False, False),
         ("tol", ("--tol",), "float", 1e-7, False, False),
         ("max_iter", ("--max-iter",), "integer", 10_000, False, False)]
_ESTIMATOR = ("estimator", ("--estimator",), "choice", None, False, False)
_TWO_SIDED = ("two_sided", ("--two-sided",), "boolean", False, True, False)
_SEED = ("seed", ("--seed",), "integer", 0, False, False)
_OUTDIR = ("outdir", ("--outdir",), "text", None, False, False)
_OPTION_SURFACE = {
    "select": [*_DATA, *_SELECTION, _ESTIMATOR, *_GRID, _OUTDIR],
    "infer": [*_DATA[:1], ("selection_csv", ("selection_csv",), "file", None, False, True),
              *_SCHEMA, _ESTIMATOR, ("correction", ("--correction",), "integer", None,
                                     False, False), _TWO_SIDED, _OUTDIR],
    "multisplit": [*_DATA, ("B", ("--B",), "integer", 50, False, False),
                   ("gamma", ("--gamma",), "float", 0.05, False, False), *_SELECTION,
                   _ESTIMATOR, ("fraction", ("--fraction",), "float", 0.5, False, False),
                   _TWO_SIDED, _SEED, _OUTDIR],
    "path": [*_DATA, _SELECTION[-1], *_GRID, _OUTDIR],
    "simulate": [("experiment", ("--experiment",), "choice", "recovery", False, False),
                 ("n", ("--n",), "integer", 500, False, False),
                 ("p", ("--p",), "integer", 100, False, False),
                 ("m", ("--m",), "integer", 10, False, False),
                 ("s_tau", ("--s-tau",), "integer", 5, False, False),
                 ("alpha", ("--alpha",), "float", 0.5, False, False),
                 ("pi", ("--pi",), "float", 0.5, False, False),
                 ("replicates", ("--replicates",), "integer", 20, False, False),
                 ("sizes", ("--sizes",), "text", "1,2,3,4,5", False, False),
                 ("methods", ("--methods",), "text", "baseline_dim,baseline,lasso,enet",
                  False, False),
                 ("estimator", ("--estimator",), "choice", "cuped", False, False),
                 ("second_sample_size", ("--second-sample-size",), "integer", 500,
                  False, False),
                 _SEED, _OUTDIR],
    "semisynth": [("n", ("--n",), "integer", 200, False, False),
                  ("alpha", ("--alpha",), "float", 8.0, False, False),
                  ("replicates", ("--replicates",), "integer", 20, False, False),
                  ("B", ("--B",), "integer", 20, False, False),
                  ("gamma", ("--gamma",), "float", 0.05, False, False),
                  ("s", ("--s",), "integer", 1, False, False),
                  ("levels", ("--levels",), "text", "240,120,60", False, False),
                  ("estimator", ("--estimator",), "choice", "lin", False, False),
                  _SEED, _OUTDIR],
    "rerun": [("manifest", ("manifest",), "file", None, False, True), _OUTDIR],
}


def test_the_option_surface_is_pinned():
    """Every command's parameters, in order, as the command line and a
    manifest know them, and the values of each choice."""
    surface = {
        name: [(p.name, tuple(p.opts), p.type.name, None if p.required else p.default,
                getattr(p, "is_flag", False), p.required) for p in command.params]
        for name, command in cli.commands.items()
    }
    assert surface == _OPTION_SURFACE
    choices = {(name, p.name): tuple(p.type.choices) for name, command in cli.commands.items()
               for p in command.params if p.type.name == "choice"}
    estimators = {(name, "estimator"): ("dim", "cuped", "lin")
                  for name in ("select", "infer", "multisplit", "simulate", "semisynth")}
    assert choices == {**estimators, ("select", "selection"): ("lasso", "enet", "baseline"),
                       ("multisplit", "selection"): ("lasso", "enet", "baseline"),
                       ("simulate", "experiment"): ("recovery", "power")}


def test_rerun_replays_exactly_the_analysis_commands(tmp_path, capsys):
    """A manifest may name any of the six analysis commands, and no other."""
    manifest = tmp_path / "manifest.json"
    for name in [*cli.commands, "nope"]:
        manifest.write_text(json.dumps({"command": name, "params": []}))
        assert main(["rerun", str(manifest), "--outdir", str(tmp_path / "out")]) == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        replayed = message == "params must be an object, got []"
        assert replayed == (name in {"select", "infer", "multisplit", "path", "simulate",
                                     "semisynth"}), message


def test_lasso_with_a_mixed_share_is_rejected_by_select_and_multisplit(
        trial_csv, tmp_path, capsys):
    records = []
    for command in (["select"], ["multisplit", "--B", "2"]):
        code = main([*command, str(trial_csv), "--s", "2", "--selection", "lasso",
                     "--l1-ratio", "0.3", "--outdir", str(tmp_path / command[0])])
        assert code == 2
        records.append(json.loads(capsys.readouterr().err.strip()))
    assert records[0] == records[1]
    assert records[0]["error"] == "data" and "l1_ratio" in records[0]["message"]


@pytest.mark.parametrize("option", [["--lam", "0.3"], ["--l1-ratio", "0.5"]])
def test_a_baseline_selection_with_a_penalty_option_is_a_data_error(
        trial_csv, tmp_path, capsys, option):
    for command in (["select"], ["multisplit", "--B", "2"]):
        code = main([*command, str(trial_csv), "--s", "2", "--selection", "baseline",
                     *option, "--outdir", str(tmp_path / command[0])])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "data"
        assert "baseline selection takes no penalty" in record["message"]


@pytest.mark.parametrize("options, match", [
    (["--s", "50"], r"sizes must be within \[1, p=10\]"),
    (["--s", "2", "--fraction", "0.01"], "leaves a part with fewer than 2 rows"),
    (["--s", "2", "--estimator", "cuped", "--covariate-cols", "none"],
     "no covariates to adjust on"),
    (["--s", "2", "--selection", "baseline", "--estimator", "lin",
      "--covariate-cols", "none"], "no covariates to adjust on"),
])
def test_a_multisplit_argument_that_fails_every_split_is_a_data_error(
        tmp_path, capsys, options, match):
    """A mistake that does not depend on the rows a split draws exits 2, as
    ``select`` and ``infer`` report it, not 3 as a failure of split 0."""
    data = _write_trial(tmp_path / "wide.csv", seed=0, p=10)
    outdir = tmp_path / "ms"
    code = main(["multisplit", str(data), "--B", "2", *options, "--outdir", str(outdir)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "data"
    assert re.search(match, record["message"])
    assert not outdir.exists() or not list(outdir.glob("*"))


MANIFEST_KEYS = {
    "select": {"data", "treatment_col", "outcome_cols", "covariate_cols",
               "selection", "s", "lam", "l1_ratio", "estimator", "n_lambdas",
               "lambda_min_ratio", "tol", "max_iter"},
    "infer": {"data", "selection_csv", "treatment_col", "outcome_cols",
              "covariate_cols", "estimator", "correction", "two_sided"},
    "multisplit": {"data", "treatment_col", "outcome_cols", "covariate_cols",
                   "B", "gamma", "selection", "s", "lam", "l1_ratio",
                   "estimator", "fraction", "two_sided", "seed"},
    "path": {"data", "treatment_col", "outcome_cols", "covariate_cols",
             "l1_ratio", "n_lambdas", "lambda_min_ratio", "tol", "max_iter"},
    "simulate": {"experiment", "n", "p", "m", "s_tau", "alpha", "pi",
                 "replicates", "sizes", "methods", "estimator",
                 "second_sample_size", "seed"},
    "semisynth": {"n", "alpha", "replicates", "B", "gamma", "s", "levels",
                  "estimator", "seed"},
}


def test_manifest_keys_are_pinned(trial_csv, tmp_path):
    """Every command records the same parameter names as earlier versions,
    so their manifests keep replaying; input files are recorded resolved."""
    sel_dir = tmp_path / "sel_for_infer"
    assert main(["select", str(trial_csv), "--s", "2", "--outdir", str(sel_dir)]) == 0
    argv = {
        "select": ["select", str(trial_csv), "--s", "2"],
        "infer": ["infer", str(trial_csv), str(sel_dir / "selection.csv")],
        "multisplit": ["multisplit", str(trial_csv), "--B", "2", "--s", "1"],
        "path": ["path", str(trial_csv), "--n-lambdas", "5"],
        "simulate": ["simulate", "--n", "60", "--p", "4", "--m", "1",
                     "--s-tau", "1", "--replicates", "1", "--sizes", "1",
                     "--methods", "lasso"],
        "semisynth": ["semisynth", "--n", "60", "--alpha", "20", "--replicates",
                      "1", "--B", "2", "--gamma", "0.5", "--estimator", "dim"],
    }
    assert set(argv) == set(MANIFEST_KEYS)
    resolved = {"data": str(trial_csv.resolve()),
                "selection_csv": str((sel_dir / "selection.csv").resolve())}
    for command, args in argv.items():
        outdir = tmp_path / command
        assert main([*args, "--outdir", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["params"]) == MANIFEST_KEYS[command], command
        for name, path in resolved.items():
            if name in manifest["params"]:
                assert manifest["params"][name] == path
