import csv
import io
import math
import tracemalloc

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


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_text())
@example(text="treatment,y0,note,y1,x0\n1,2,1,3,1#2\n0,1,1,1,1\n")
@example(text="treatment,y0,note,y1,x0\n1,2,subject 01,3,4\n0,1,subject 02,1,1\n")
@example(text='treatment,y0,note,y1,x0\n1,2,"a, b",3,4\n0,1,c,1,1\n')
@example(text="treatment,y0,note,y1,x0\n1,2,a,3,4,5\n0,1,b,1,1\n")
@example(text="treatment,y0,note,y1,x0\r\n1,2,1,3,4\r\n\r\n0,1,1,1,1")
@example(text="treatment,y0,note,y1,x0\n1,2,a,3,4\r0,1,b,1,1\r\n1,5,c,2,2\n0,3,d,4,1\n")
@example(text="treatment,y0,note,y1,x0\r\n1,2,a,3,4\r\n0,1,b,1,1\n1,5,c,2,2\r\n")
def test_load_csv_matches_the_cell_by_cell_oracle(tmp_path, text):
    """Either the oracle's arrays, bit for bit, or its exact error."""
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    schema = CsvSchema("treatment", ("y0", "y1"), ("x0",))
    assert _outcome(lambda: load_csv(path, schema)) == \
        _outcome(lambda: _oracle_load(text, schema, path))


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


def test_load_csv_holds_no_copy_of_the_file_text(tmp_path):
    """The one pass reads the block line by line: a load's traced peak (the
    parsed block and the dataset's copy of it, about 0.9 of the file here)
    stays under 1.5 times the file size, where a whole-file string and its
    split lines alone would take twice the file."""
    rng = np.random.default_rng(0)
    ds = TrialDataset(np.tile([0, 1], 100), rng.standard_normal((200, 400)),
                      rng.standard_normal((200, 3)))
    path = tmp_path / "wide.csv"
    schema = write_csv(ds, path)
    tracemalloc.start()
    try:
        loaded = load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.outcomes, ds.outcomes)
    assert peak < 1.5 * path.stat().st_size


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
        tracemalloc.start()
        try:
            write_csv(part, tmp_path / f"{rows}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
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
