import contextlib
import csv
import io
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hdte import data
from hdte.data import (
    CsvSchema,
    TrialDataset,
    aggregate_columns,
    center_columns,
    check_grouping,
    column_group_means,
    load_csv,
    random_split,
    split_indices,
    write_csv,
)
from hdte.errors import DataError
from hdte.simharness import window_level_groupings

from conftest import traced_peak


def small_dataset():
    t = [1, 1, 0, 0]
    y = [[3.0, 1.0], [5.0, 2.0], [1.0, 0.0], [1.0, 1.0]]
    x = [[0.5], [-0.5], [1.5], [-1.5]]
    return TrialDataset(t, y, x)


def test_dataset_shapes_and_counts():
    ds = small_dataset()
    assert (ds.n, ds.p, ds.m) == (4, 2, 1)
    assert ds.n_treated == 2
    assert ds.n_control == 2
    assert ds.treatments.dtype == np.int64


def test_dataset_arrays_are_readonly_copies():
    y = np.array([[1.0], [2.0], [3.0], [4.0]])
    ds = TrialDataset([1, 0, 1, 0], y)
    y[0, 0] = 99.0
    assert ds.outcomes[0, 0] == 1.0
    with pytest.raises(ValueError):
        ds.outcomes[0, 0] = 5.0


def test_dataset_rejects_bad_treatments():
    with pytest.raises(DataError, match="0 or 1"):
        TrialDataset([1, 2, 0, 0], np.zeros((4, 1)))
    with pytest.raises(DataError, match="row 1"):
        TrialDataset([0, 0.5, 1, 1], np.zeros((4, 1)))


def test_dataset_rejects_shape_mismatches():
    with pytest.raises(DataError, match="2-d"):
        TrialDataset([0, 1], np.zeros(2))
    with pytest.raises(DataError, match="rows"):
        TrialDataset([0, 1, 1], np.zeros((2, 1)))
    with pytest.raises(DataError, match="n >= 2|needs n"):
        TrialDataset([1], np.zeros((1, 1)))
    with pytest.raises(DataError, match="covariates"):
        TrialDataset([0, 1], np.zeros((2, 1)), np.zeros((3, 1)))


def test_dataset_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        TrialDataset([0, 1], [[np.nan], [1.0]])
    with pytest.raises(DataError, match="non-finite"):
        TrialDataset([0, 1], [[1.0], [1.0]], [[np.inf], [0.0]])


def test_column_labels_checked_and_subset():
    ds = TrialDataset([0, 1], [[1.0, 2.0], [3.0, 4.0]], column_labels=("a", "b"))
    sub = ds.restrict_outcomes([1])
    assert sub.column_labels == ("b",)
    assert sub.outcomes[:, 0].tolist() == [2.0, 4.0]
    with pytest.raises(DataError, match="labels"):
        TrialDataset([0, 1], [[1.0, 2.0], [3.0, 4.0]], column_labels=("a",))


def test_take_rows_preserves_columns():
    ds = small_dataset()
    sub = ds.take_rows([0, 2])
    assert sub.n == 2
    assert sub.treatments.tolist() == [1, 0]
    np.testing.assert_array_equal(sub.covariates, [[0.5], [1.5]])


def assert_frozen(ds):
    """The array invariants every validated dataset keeps."""
    assert ds.treatments.dtype == np.int64
    for arr in (ds.treatments, ds.outcomes, ds.covariates):
        assert not arr.flags.writeable and arr.flags.c_contiguous


def test_derived_datasets_stay_frozen_without_revalidation(monkeypatch):
    ds = small_dataset()
    replaced = ds.replace_outcomes([[1.0], [2.0], [3.0], [4.0]], column_labels=[7])
    restricted = ds.restrict_outcomes(np.array([1, 0]))
    for derived in (ds.take_rows([3, 0, 1]), aggregate_columns(ds.replace_outcomes(
            np.ones((4, 1))), [(0,)]), random_split(ds, 0.5, seed=1).first,
            replaced, restricted):
        assert_frozen(derived)
    assert replaced.column_labels == ("7",) and replaced.outcomes[:, 0].tolist() == [1, 2, 3, 4]
    assert restricted.outcomes.tolist() == [[1.0, 3.0], [2.0, 5.0], [0.0, 1.0], [1.0, 1.0]]
    assert replaced.covariates is ds.covariates and restricted.treatments is ds.treatments

    def no_validation(self):
        raise AssertionError("a derived dataset was validated again")

    monkeypatch.setattr(TrialDataset, "__post_init__", no_validation)
    ds.restrict_outcomes([0])
    ds.replace_outcomes(np.ones((4, 2)))
    for bad, message in ((np.ones(4), "2-d"), (np.ones((3, 1)), "rows"),
                         ([[1.0], [np.nan], [0.0], [0.0]], "non-finite")):
        with pytest.raises(DataError, match=message):
            ds.replace_outcomes(bad)
    with pytest.raises(DataError, match="labels"):
        ds.replace_outcomes(np.ones((4, 2)), column_labels=("a",))
    with pytest.raises(DataError, match="1-d"):
        ds.restrict_outcomes([[0, 1]])
    sub = ds.take_rows(np.array([3, 1]))
    assert sub.treatments.tolist() == [0, 1]
    assert sub.outcomes.tolist() == [[1.0, 1.0], [5.0, 2.0]]
    with pytest.raises(DataError, match="n >= 2"):
        ds.take_rows([2])
    with pytest.raises(DataError, match="1-d"):
        ds.take_rows([[0, 1], [2, 3]])


def test_replace_outcomes_keeps_rows():
    ds = small_dataset()
    replaced = ds.replace_outcomes(np.ones((4, 3)))
    assert replaced.p == 3
    np.testing.assert_array_equal(replaced.treatments, ds.treatments)
    np.testing.assert_array_equal(replaced.covariates, ds.covariates)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    y = rng.standard_normal((20, 3))
    x = rng.standard_normal((20, 2))
    t = rng.integers(0, 2, 20)
    ds = TrialDataset(t, y, x)
    path = tmp_path / "trial.csv"
    schema = write_csv(ds, path)
    back = load_csv(path, schema)
    np.testing.assert_array_equal(back.treatments, ds.treatments)
    np.testing.assert_array_equal(back.outcomes, ds.outcomes)
    np.testing.assert_array_equal(back.covariates, ds.covariates)
    assert back.column_labels == ("y0", "y1", "y2")


def test_load_csv_reports_bad_cells_with_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("treatment,y0\n1,1.0\n0,oops\n")
    with pytest.raises(DataError, match="data row 2"):
        load_csv(path, CsvSchema("treatment", ("y0",)))
    path.write_text("treatment,y0\n1,1.0\n0,\n1,2.0\n")
    with pytest.raises(DataError, match="missing value.*row 2"):
        load_csv(path, CsvSchema("treatment", ("y0",)))
    path.write_text("treatment,y0\n1,1.0\n0,2.0,9\n")
    with pytest.raises(DataError, match="row 2 has 3 cells"):
        load_csv(path, CsvSchema("treatment", ("y0",)))


def test_load_csv_header_and_size_checks(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("treatment,y0\n1,1.0\n")
    with pytest.raises(DataError, match="n >= 2"):
        load_csv(path, CsvSchema("treatment", ("y0",)))
    with pytest.raises(DataError, match="not found"):
        load_csv(path, CsvSchema("treatment", ("y1",)))
    path.write_text("treatment,y0,y0\n1,1.0,2.0\n0,1.0,2.0\n")
    with pytest.raises(DataError, match="duplicated"):
        load_csv(path, CsvSchema("treatment", ("y0",)))
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "absent.csv", CsvSchema("treatment", ("y0",)))


def test_load_csv_rejects_fractional_treatment(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("treatment,y0\n0.5,1.0\n0,2.0\n")
    with pytest.raises(DataError, match="must be 0 or 1"):
        load_csv(path, CsvSchema("treatment", ("y0",)))


def test_write_csv_formats_each_value_as_its_float_repr(tmp_path):
    ds = TrialDataset([1, 0, 1], [[0.1, -2.5e-300], [1e16, 3.0], [-0.0, 1 / 3]],
                      [[7.0], [np.nextafter(1.0, 2.0)], [-1e-7]])
    write_csv(ds, tmp_path / "t.csv")
    lines = [["treatment", "y0", "y1", "x0"]] + [
        [str(int(ds.treatments[i])), *(repr(float(v)) for v in ds.outcomes[i]),
         *(repr(float(v)) for v in ds.covariates[i])]
        for i in range(ds.n)
    ]
    expected = "".join(",".join(r) + "\r\n" for r in lines)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


# The loader property test writes clean tables of numbers (some padded with
# whitespace) and then applies up to three faults: a cell float(cell.strip())
# rejects or reads as non-finite, a quoted cell, a short, long or blank row,
# or text in the column outside the schema.
_SPECIAL_CELLS = ["1_000", "1__0", "_1", ".5", "5.", "+.5e-3", "1e400", "nan", "-inf",
                  "Infinity", "", " ", "abc", "1e", "0x10", "1 2", "#1", "1#2", "1,5",
                  "\u0661", "1\x00", "1\x1c", '1"0', "0.5", "2", "-0"]
_PADDING = st.sampled_from(["", "", "", " ", "\t", "\xa0"])


@st.composite
def _number(draw, treatment=False):
    if treatment:
        text = draw(st.sampled_from(["0", "1", "1.0", "0e0"]))
    else:
        text = draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                              st.integers(-10**6, 10**6).map(str)))
    return draw(_PADDING) + text + draw(_PADDING)


@st.composite
def _csv_text(draw):
    """Header ``treatment,y0,note,y1,x0`` (``note`` is outside the schema)
    and up to six data rows, with mixed line ends."""
    rows = [[draw(_number(treatment=True)), draw(_number()), "1", draw(_number()),
             draw(_number())] for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        fault = draw(st.sampled_from(["cell", "quote", "short", "long", "blank", "note"]))
        k = draw(st.integers(0, 4))
        if fault == "cell" and row:
            row[k % len(row)] = draw(st.sampled_from(_SPECIAL_CELLS))
        elif fault == "quote" and row:
            row[k % len(row)] = '"' + row[k % len(row)].replace('"', '""') + '"'
        elif fault == "short" and row:
            del row[k % len(row):]
        elif fault == "long":
            row.append("1")
        elif fault == "blank":
            row.clear()
        elif fault == "note" and len(row) > 2:
            row[2] = "a"
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(["treatment", " y0", "note", "y1 ", "x0"])] + [",".join(r) for r in rows]
    text = end.join(lines)
    return text + end if draw(st.booleans()) else text


def _oracle_load(text, schema, path):
    """The schema columns read cell by cell with ``float(cell.strip())``,
    raising at the first bad cell or row in file order."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    names = (schema.treatment, *schema.outcomes, *schema.covariates)
    where = [[h.strip() for h in header].index(name) for name in names]
    table = []
    for row_num, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise DataError(f"data row {row_num} has {len(row)} cells, expected {len(header)}")
        values = []
        for name, k in zip(names, where):
            raw = row[k]
            if raw.strip() == "":
                raise DataError(f"missing value in column {name!r} at data row {row_num}")
            try:
                value = float(raw.strip())
            except ValueError:
                raise DataError(
                    f"non-numeric value {raw!r} in column {name!r} at data row {row_num}"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value {raw!r} in column {name!r} at data row {row_num}")
            if name == schema.treatment and value not in (0.0, 1.0):
                raise DataError(f"treatment value must be 0 or 1; found {value!r} "
                                f"in column {name!r} at data row {row_num}")
            values.append(value)
        table.append(values)
    if len(table) < 2:
        raise DataError(f"{path} has {len(table)} data rows; n >= 2 required")
    table = np.array(table)
    return TrialDataset(table[:, 0], table[:, 1:3], table[:, 3:], schema.outcomes)


def _outcome(load):
    try:
        ds = load()
    except (DataError, csv.Error) as exc:
        return type(exc), str(exc)
    return tuple(a.dtype.str + a.tobytes().hex() for a in (ds.treatments, ds.outcomes, ds.covariates))


_PINNED_CSV = (
    "treatment,y0,note,y1,x0\n1,2,1,3,1#2\n0,1,1,1,1\n",
    "treatment,y0,note,y1,x0\n1,2,subject 01,3,4\n0,1,subject 02,1,1\n",
    'treatment,y0,note,y1,x0\n1,2,"a, b",3,4\n0,1,c,1,1\n',
    "treatment,y0,note,y1,x0\n1,2,a,3,4,5\n0,1,b,1,1\n",
    "treatment,y0,note,y1,x0\r\n1,2,1,3,4\r\n\r\n0,1,1,1,1",
    "treatment,y0,note,y1,x0\n1,2,a,3,4\r0,1,b,1,1\r\n1,5,c,2,2\n0,3,d,4,1\n",
    "treatment,y0,note,y1,x0\r\n1,2,a,3,4\r\n0,1,b,1,1\n1,5,c,2,2\r\n",
)
_ORACLE_SCHEMA = CsvSchema("treatment", ("y0", "y1"), ("x0",))


def _write_text(path, text):
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _pinned(test):
    for text in _PINNED_CSV:
        test = example(text=text)(test)
    return test


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_text())
@_pinned
def test_load_csv_matches_the_cell_by_cell_oracle(tmp_path, text):
    """Either the oracle's arrays, bit for bit, or its exact error."""
    path = tmp_path / "t.csv"
    _write_text(path, text)
    assert _outcome(lambda: load_csv(path, _ORACLE_SCHEMA)) == \
        _outcome(lambda: _oracle_load(text, _ORACLE_SCHEMA, path))


def test_load_csv_parses_around_a_text_column_in_one_pass(tmp_path, monkeypatch):
    """A text column outside the schema keeps the vectorized pass; a quote
    anywhere or a long row still goes cell by cell."""
    path = tmp_path / "t.csv"
    schema = CsvSchema("treatment", ("y0", "y1"))

    def cell_by_cell(*args):
        raise AssertionError("fell back to the cell-by-cell parser")

    path.write_text("treatment,y0,note,y1\n1,2.5,id-01 left,3\n0,1,id 02,-1\n")
    with monkeypatch.context() as patch:
        patch.setattr(data, "_parse_rows", cell_by_cell)
        ds = load_csv(path, schema)
        assert ds.outcomes.tolist() == [[2.5, 3.0], [1.0, -1.0]]
        # LF rows, a lone CR and a CRLF end records as csv.reader ends them
        path.write_bytes(b"treatment,y0,note,y1\n1,2.5,a,3\r0,1,b,-1\r\n1,4,c,0\n")
        assert load_csv(path, schema).outcomes.tolist() == [[2.5, 3.0], [1.0, -1.0], [4.0, 0.0]]
    path.write_text('treatment,y0,note,y1\n1,2.5,"a, b",3\n0,1,c,-1\n')
    assert load_csv(path, schema).outcomes.tolist() == [[2.5, 3.0], [1.0, -1.0]]
    path.write_text("treatment,y0,note,y1\n1,2.5,a,3\n0,1,c,-1,7\n")
    with pytest.raises(DataError, match="data row 2 has 5 cells, expected 4"):
        load_csv(path, schema)
    # split at every comma, the quoted cell would hide the missing one
    path.write_text('treatment,y0,y1,note,tag\n1,2.5,3,"a,b"\n0,1,-1,c,d\n')
    with pytest.raises(DataError, match="data row 1 has 4 cells, expected 5"):
        load_csv(path, schema)


@pytest.mark.parametrize("body", [b"1,2.5,a,3\r\n0,1,b,-1\r\n1,4,c,0\r\n",
                                  b"1,2.5,a,3\r\n0,1,b,-1\n1,4,c,0\r\n",
                                  b"1,2.5,a,3\r0,1,b,-1\r\n1,4,c,0\r\n"])
def test_crlf_text_with_or_without_a_lone_line_end_keeps_the_one_pass(tmp_path, monkeypatch, body):
    """CRLF text splits at its CRLFs; a lone LF or CR in it still ends a
    record, as in ``csv.reader``, without leaving the vectorized pass."""
    path = tmp_path / "t.csv"
    path.write_bytes(b"treatment,y0,note,y1\r\n" + body)

    def cell_by_cell(*args):
        raise AssertionError("fell back to the cell-by-cell parser")

    monkeypatch.setattr(data, "_parse_rows", cell_by_cell)
    ds = load_csv(path, CsvSchema("treatment", ("y0", "y1")))
    assert ds.outcomes.tolist() == [[2.5, 3.0], [1.0, -1.0], [4.0, 0.0]]


def _force_parts(patch, parts: int) -> list:
    """Let ``load_csv`` cut any data block into up to ``parts`` byte ranges,
    whatever the machine's CPU count (``parts=1`` keeps every load serial);
    the returned list records, per parallel attempt, whether it gave the
    block."""
    taken, parse_parallel = [], data._parse_parallel

    def recorded(*args):
        block = parse_parallel(*args)
        taken.append(block is not None)
        return block

    patch.setattr(data, "_PART_MIN_BYTES", 16)
    patch.setattr(data.os, "sched_getaffinity", lambda pid: set(range(parts)))
    patch.setattr(data, "_parse_parallel", recorded)
    return taken


def _routes(monkeypatch, path, schema, parts=3):
    """The outcomes of a load cut into ``parts`` ranges and of a serial
    load, and whether each parallel attempt gave the block."""
    with monkeypatch.context() as patch:
        taken = _force_parts(patch, parts)
        parallel = _outcome(lambda: load_csv(path, schema))
    with monkeypatch.context() as patch:
        assert not _force_parts(patch, 1)   # no attempt
        serial = _outcome(lambda: load_csv(path, schema))
    return parallel, serial, taken


def _table_lines(rows=300):
    """Header ``treatment,y0,note,y1,x0`` (``note``, outside the schema,
    holds non-ASCII text) and ``rows`` data lines of shortest-repr floats:
    by default over 16 KiB, so the text read ahead with the header does not
    reach the last part."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-5, 5, (rows, 3))
    return ["treatment,y0,note,y1,x0"] + [
        ",".join([str(i % 2), repr(a), f"sujet-\u00fc{i:02d}", repr(b), repr(c)])
        for i, (a, b, c) in enumerate(values.tolist())]


# Each fault rewrites the last data line (``blank`` puts an empty line before
# it), so it sits in the last of three parts.
_LAST_LINE_FAULTS = {
    "bad cell": lambda line: line.rsplit(",", 1)[0] + ",oops",
    "quote": lambda line: line.replace("sujet", '"sujet, a"', 1),
    "ragged": lambda line: line + ",7",
    "blank": lambda line: "\n" + line,
    "inf": lambda line: line.rsplit(",", 1)[0] + ",inf",
    "treatment 2": lambda line: "2" + line[1:],
    "non-UTF-8": lambda line: line.replace("sujet", "sujet\udcff", 1),
}


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("fault", [None, *_LAST_LINE_FAULTS])
def test_the_parallel_route_gives_the_serial_result(tmp_path, monkeypatch, end, fault):
    """A block cut into three parts gives the serial route's arrays bit for
    bit or its exact error, for a fault that only the last part holds."""
    lines = _table_lines()
    if fault is not None:
        lines[-1] = _LAST_LINE_FAULTS[fault](lines[-1]).replace("\n", end)
    text = end.join(lines) + end
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    fault_at = len((end.join(lines[:-1]) + end).encode("utf-8", "surrogateescape"))
    with monkeypatch.context() as patch:
        _force_parts(patch, 3)
        ranges = data._part_ranges(path)
    assert len(ranges) == 3 and ranges[-1][0] < fault_at
    parallel, serial, taken = _routes(monkeypatch, path, _ORACLE_SCHEMA)
    assert parallel == serial
    # inf and a treatment of 2 are read, then fail the block's checks
    assert taken == [fault in (None, "inf", "treatment 2")]
    # a quoted cell is read cell by cell; every other fault is an error
    assert (parallel[0] is DataError) is (fault not in (None, "quote"))


@pytest.mark.parametrize("layout", ["cr", "cr header", "bom", "quoted header", "short"])
def test_a_load_the_parallel_route_cannot_cut_stays_serial(tmp_path, monkeypatch, layout):
    """A CR-only file (no ``\\n`` to cut at), a header ending at a lone
    ``\\r`` or holding a quote, and a block of one row are parsed serially;
    a byte-order mark is not."""
    lines = _table_lines(1 if layout == "short" else 300)
    if layout == "quoted header":
        lines[0] = lines[0].replace("note", '"note"')
    if layout == "cr header":
        lines[:2] = [lines[0] + "\r" + lines[1]]
    end = "\r" if layout == "cr" else "\n"
    prefix = "\ufeff" if layout == "bom" else ""
    path = tmp_path / "t.csv"
    path.write_bytes((prefix + end.join(lines) + end).encode())
    parallel, serial, taken = _routes(monkeypatch, path, _ORACLE_SCHEMA)
    assert parallel == serial
    assert taken == ([True] if layout == "bom" else [])


@pytest.mark.parametrize("text", _PINNED_CSV)
@pytest.mark.parametrize("parts", [2, 3])
def test_pinned_examples_give_the_oracle_result_on_both_routes(tmp_path, monkeypatch, text, parts):
    path = tmp_path / "t.csv"
    _write_text(path, text)
    parallel, serial, _ = _routes(monkeypatch, path, _ORACLE_SCHEMA, parts)
    assert parallel == serial == _outcome(lambda: _oracle_load(text, _ORACLE_SCHEMA, path))


def test_a_load_leaves_no_child_and_writes_buffered_output_once(tmp_path, monkeypatch, capfd):
    """A load that takes the parallel route, one that falls back (a quote in
    its last part) and one whose child is killed mid-parse each give the
    serial result and reap every child; text buffered on stdout before the
    loads is written once, by this process."""
    lines = _table_lines()
    lines[-1] = "1,99.5" + lines[-1][lines[-1].index(",", 2):]
    path, quoted = tmp_path / "t.csv", tmp_path / "quoted.csv"
    path.write_text("\n".join(lines) + "\n")
    quoted.write_text("\n".join([*lines[:-1], _LAST_LINE_FAULTS["quote"](lines[-1])]) + "\n")
    with monkeypatch.context() as patch:
        _force_parts(patch, 1)
        expected = _outcome(lambda: load_csv(path, _ORACLE_SCHEMA))
    parent, parse_block = os.getpid(), data._parse_block

    def killed_at_the_marked_row(handle, width, columns):
        def lines_of(handle):
            for line in handle:
                if os.getpid() != parent and line.startswith("1,99.5,"):
                    os.kill(os.getpid(), signal.SIGKILL)
                yield line
        return parse_block(lines_of(handle), width, columns)

    buffered = open(os.dup(1), "w", encoding="utf-8")
    with contextlib.redirect_stdout(buffered):
        print("buffered before the loads", end="")
        taken = _force_parts(monkeypatch, 2)
        for source, route in ((path, True), (quoted, False), (path, False)):
            if source is path and not route:
                monkeypatch.setattr(data, "_parse_block", killed_at_the_marked_row)
            outcome = _outcome(lambda: load_csv(source, _ORACLE_SCHEMA))
            assert taken.pop() is route
            assert outcome == expected
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    buffered.close()
    assert capfd.readouterr().out == "buffered before the loads"


def test_load_csv_holds_no_copy_of_the_file_text(tmp_path):
    """The one pass reads the block line by line: a load's traced peak (the
    parsed values, about 0.45 of the file here) stays under 1.5 times the
    file size, where a whole-file string and its split lines alone would
    take twice the file."""
    rng = np.random.default_rng(0)
    ds = TrialDataset(np.tile([0, 1], 100), rng.standard_normal((200, 400)),
                      rng.standard_normal((200, 3)))
    path = tmp_path / "wide.csv"
    schema = write_csv(ds, path)
    loaded, peak = traced_peak(lambda: load_csv(path, schema))
    assert np.array_equal(loaded.outcomes, ds.outcomes)
    assert peak < 1.5 * path.stat().st_size


def test_load_csv_holds_its_values_once(tmp_path, monkeypatch):
    """The outcomes move to the front of the parsed block in place, with the
    covariates behind them, and are not validated again: a load's traced
    peak stays under 1.3 times the bytes of the values it parses, where a
    copy of the outcomes next to the block takes twice. The serial route
    peaks at 1.26 here (``np.loadtxt``'s growing buffer), the parallel one
    at 1.08 (the block its children's parts are read into, and the header's
    404 names). All parsers leave the arrays every validated dataset
    keeps."""
    rng = np.random.default_rng(0)
    ds = TrialDataset(np.tile([0, 1], 100), rng.standard_normal((200, 400)),
                      rng.standard_normal((200, 3)))
    path = tmp_path / "wide.csv"
    schema = write_csv(ds, path)
    values = ds.n * (1 + ds.p + ds.m) * 8
    loaded, peak = traced_peak(lambda: load_csv(path, schema))
    assert peak <= 1.3 * values
    with monkeypatch.context() as patch:
        taken = _force_parts(patch, 2)
        in_parts, peak = traced_peak(lambda: load_csv(path, schema))
    assert taken == [True] and peak <= 1.3 * values
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('treatment,y0,x0,y1\n1,"2.5",7,3\n0,1,8,-1\n1,4,9,0\n')
    cell_by_cell = load_csv(quoted, CsvSchema("treatment", ("y0", "y1"), ("x0",)))
    expected = TrialDataset([1, 0, 1], [[2.5, 3], [1, -1], [4, 0]], [[7], [8], [9]])
    for got, want in ((loaded, ds), (in_parts, ds), (cell_by_cell, expected)):
        assert_frozen(got)
        for name in ("treatments", "outcomes", "covariates"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_write_csv_holds_no_copy_of_the_matrix(tmp_path):
    """Rows are converted one at a time: writing 200 rows of a 200 x 400
    design peaks less than a tenth of its file above writing 2 rows of the
    same columns, where the matrix as nested Python floats would take more
    than the file. (The header's cost is common to both: ``csv.writer``
    alone holds a 128 KiB record buffer.)"""
    rng = np.random.default_rng(0)
    ds = TrialDataset(np.tile([0, 1], 100), rng.standard_normal((200, 400)),
                      rng.standard_normal((200, 3)))
    peaks = []
    for rows in (2, 200):
        part = ds.take_rows(np.arange(rows))
        peaks.append(traced_peak(lambda: write_csv(part, tmp_path / f"{rows}.csv"))[1])
    assert peaks[1] - peaks[0] < 0.1 * (tmp_path / "200.csv").stat().st_size


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("treatment,y0\n1,2.0\n0,1.0\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    ds = load_csv(path, CsvSchema("treatment", ("y0",)))
    assert ds.treatments.tolist() == [1, 0]
    assert ds.outcomes.tolist() == [[2.0], [1.0]]


def test_schema_rejects_duplicates_and_empty():
    with pytest.raises(DataError, match="at least one outcome"):
        CsvSchema("t", ())
    with pytest.raises(DataError, match="twice"):
        CsvSchema("t", ("a", "a"))
    with pytest.raises(DataError, match="twice"):
        CsvSchema("t", ("a",), ("t",))


def test_split_indices_partition_and_sizes():
    first, second = split_indices(11, 0.5, seed=3)
    # round-to-nearest: 11 * 0.5 + 0.5 -> 6
    assert first.size == 6 and second.size == 5
    merged = np.sort(np.concatenate([first, second]))
    np.testing.assert_array_equal(merged, np.arange(11))
    assert np.all(np.diff(first) > 0)
    assert np.all(np.diff(second) > 0)


def test_split_indices_deterministic_in_seed():
    a1, b1 = split_indices(40, 0.3, seed=12)
    a2, b2 = split_indices(40, 0.3, seed=12)
    a3, _ = split_indices(40, 0.3, seed=13)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)
    assert not np.array_equal(a1, a3)


def test_split_indices_rejects_tiny_parts():
    with pytest.raises(DataError, match="fewer than 2"):
        split_indices(5, 0.1, seed=0)
    with pytest.raises(DataError, match="fraction"):
        split_indices(10, 1.0, seed=0)


def test_random_split_preserves_row_order():
    rng = np.random.default_rng(5)
    ds = TrialDataset(rng.integers(0, 2, 30), rng.standard_normal((30, 2)))
    pair = random_split(ds, 0.5, seed=9)
    assert pair.first.n + pair.second.n == 30
    assert pair.split_seed == 9
    # rows keep their relative order, so each part's outcome rows appear
    # in the parent in the same sequence
    parent = ds.outcomes.tolist()
    for part in (pair.first, pair.second):
        positions = [parent.index(row.tolist()) for row in part.outcomes]
        assert positions == sorted(positions)


def test_aggregate_columns_means_and_covariates():
    y = np.array([[1.0, 3.0, 5.0, 7.0], [0.0, 2.0, 4.0, 6.0]])
    ds = TrialDataset([0, 1], y, y + 1.0)
    out = aggregate_columns(ds, [(0, 1), (2, 3)])
    np.testing.assert_allclose(out.outcomes, [[2.0, 6.0], [1.0, 5.0]])
    np.testing.assert_allclose(out.covariates, [[3.0, 7.0], [2.0, 6.0]])


def test_aggregate_columns_is_the_per_group_mean_bit_for_bit():
    """On the window levels of a 60-minute base layout, and on a grouping of
    mixed widths, every aggregated column has the bits of the per-group
    ``mean``."""
    rng = np.random.default_rng(17)
    ds = TrialDataset(np.array([1, 0] * 25), 100.0 * rng.random((50, 24)),
                      rng.standard_normal((50, 24)))
    mixed = [(3, 1, 2), (0,), tuple(range(4, 24)), (5, 23)]
    for grouping in [*window_level_groupings((240, 120, 60)), mixed]:
        out = aggregate_columns(ds, grouping)
        for got, base in ((out.outcomes, ds.outcomes), (out.covariates, ds.covariates)):
            want = np.column_stack([base[:, list(g)].mean(axis=1) for g in grouping])
            assert got.tobytes() == want.tobytes()
        assert column_group_means(ds.outcomes, grouping).tobytes() == out.outcomes.tobytes()
        assert_frozen(out)


def test_aggregate_columns_validates_groups():
    ds = TrialDataset([0, 1], np.zeros((2, 3)))
    with pytest.raises(DataError, match="at least one group"):
        aggregate_columns(ds, [])
    with pytest.raises(DataError, match="empty"):
        aggregate_columns(ds, [(0,), ()])
    with pytest.raises(DataError, match="out of range"):
        aggregate_columns(ds, [(0, 3)])
    mismatched = TrialDataset([0, 1], np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(DataError, match="base layout"):
        aggregate_columns(mismatched, [(0, 1)])
    with pytest.raises(DataError, match="base layout"):
        check_grouping(mismatched, [(0, 1)])
    with pytest.raises(DataError, match="group 1 has column indices out of range"):
        column_group_means(np.zeros((2, 3)), [(0, 1), (2, 3)])
    with np.errstate(over="ignore"), pytest.raises(DataError, match="non-finite"):
        aggregate_columns(TrialDataset([0, 1], np.full((2, 2), 1e308)), [(0, 1)])


def test_center_columns_plain_and_weighted():
    m = np.array([[1.0, 10.0], [3.0, 30.0]])
    centered, means = center_columns(m)
    np.testing.assert_allclose(means, [2.0, 20.0])
    np.testing.assert_allclose(centered, [[-1.0, -10.0], [1.0, 10.0]])
    centered_w, means_w = center_columns(m, weights=[3.0, 1.0])
    np.testing.assert_allclose(means_w, [1.5, 15.0])
    np.testing.assert_allclose(centered_w[:, 0], [-0.5, 1.5])


def test_center_columns_vector_input():
    centered, means = center_columns([1.0, 2.0, 3.0])
    assert centered.shape == (3,)
    np.testing.assert_allclose(means, [2.0])
    np.testing.assert_allclose(centered, [-1.0, 0.0, 1.0])


def test_center_columns_weight_errors():
    with pytest.raises(DataError, match="nonnegative"):
        center_columns([[1.0], [2.0]], weights=[-1.0, 1.0])
    with pytest.raises(DataError, match="sum to zero"):
        center_columns([[1.0], [2.0]], weights=[0.0, 0.0])
    with pytest.raises(DataError, match="shape"):
        center_columns([[1.0], [2.0]], weights=[1.0, 1.0, 1.0])
