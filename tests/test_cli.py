import csv
import json
import re

import numpy as np
import pytest

from hdte.cli import _load_dataset, main
from hdte.data import TrialDataset, write_csv


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
    assert not list(outdir.glob("*"))


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
    assert not list(outdir.glob("*"))


def test_select_nonconvergence_is_a_numerical_error(trial_csv, tmp_path, capsys):
    code = main(["select", str(trial_csv), "--s", "2", "--max-iter", "1",
                 "--outdir", str(tmp_path / "o")])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "numerical"
    assert "did not converge" in record["message"]


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


def test_rerun_rejects_broken_manifest(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text("{\"command\": \"select\"}")
    assert main(["rerun", str(bad)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert "params" in record["message"]


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
                 "second_sample_size", "seed", "jobs"},
    "semisynth": {"n", "alpha", "replicates", "B", "gamma", "s", "levels",
                  "estimator", "seed", "jobs"},
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
