"""Trial data containers, CSV ingestion, and deterministic sample splitting."""

from __future__ import annotations

import csv
import io
import os
import signal
import sys
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError

__all__ = [
    "TrialDataset",
    "SplitPair",
    "CsvSchema",
    "load_csv",
    "write_csv",
    "random_split",
    "split_indices",
    "center_columns",
    "check_full_rank",
    "solve_nonsingular",
    "project_columns",
    "column_group_means",
    "aggregate_columns",
]


def _freeze(fresh: np.ndarray) -> np.ndarray:
    """``fresh`` (an array no one else holds) C-ordered and read-only."""
    out = np.ascontiguousarray(fresh)
    out.setflags(write=False)
    return out


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    return _freeze(np.array(values, dtype=dtype, order="C"))


def _outcome_array(y: np.ndarray, n: int) -> np.ndarray:
    """Float outcomes ``y`` checked against ``n`` treatments, frozen."""
    if y.ndim != 2:
        raise DataError(f"outcomes must be 2-d, got shape {y.shape}")
    if y.shape[0] != n:
        raise DataError(f"outcomes have {y.shape[0]} rows but treatments have {n}")
    if not np.all(np.isfinite(y)):
        raise DataError("outcomes contain non-finite values")
    return _frozen_array(y)


def _labels(column_labels, p: int) -> tuple[str, ...] | None:
    if column_labels is None:
        return None
    labels = tuple(str(c) for c in column_labels)
    if len(labels) != p:
        raise DataError(f"{len(labels)} column labels for {p} outcome columns")
    return labels


@dataclass(frozen=True)
class TrialDataset:
    """One randomized-trial sample: binary treatments, outcomes, optional covariates.

    Arrays are copied on construction and marked read-only, so instances can
    be shared freely. ``outcomes`` is ``(n, p)``, ``covariates`` is ``(n, m)``
    when present, and ``column_labels`` (optional) names the ``p`` outcome
    columns.
    """

    treatments: np.ndarray
    outcomes: np.ndarray
    covariates: np.ndarray | None = None
    column_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        t = np.asarray(self.treatments)
        if t.ndim != 1:
            raise DataError(f"treatments must be 1-d, got shape {t.shape}")
        t_float = t.astype(np.float64)
        if not np.all(np.isin(t_float, (0.0, 1.0))):
            bad = np.flatnonzero(~np.isin(t_float, (0.0, 1.0)))[0]
            raise DataError(
                f"treatment values must be 0 or 1; found {t[bad]!r} at row {bad}"
            )
        n = t.shape[0]
        y = np.asarray(self.outcomes, dtype=np.float64)
        if y.ndim == 2 and n < 2:   # a shape error is reported first
            raise DataError(f"dataset needs n >= 2 rows, got n={n}")
        object.__setattr__(self, "treatments", _frozen_array(t_float, np.int64))
        object.__setattr__(self, "outcomes", _outcome_array(y, n))
        if self.covariates is not None:
            x = np.asarray(self.covariates, dtype=np.float64)
            if x.ndim != 2 or x.shape[0] != n:
                raise DataError(
                    f"covariates must be (n, m) with n={n}, got shape {x.shape}"
                )
            if not np.all(np.isfinite(x)):
                raise DataError("covariates contain non-finite values")
            object.__setattr__(self, "covariates", _frozen_array(x))
        object.__setattr__(self, "column_labels",
                           _labels(self.column_labels, self.outcomes.shape[1]))

    @classmethod
    def _trusted(cls, treatments, outcomes, covariates, column_labels) -> "TrialDataset":
        """A dataset from arrays derived from a validated dataset, frozen as
        ``__post_init__`` leaves them (read-only, C-ordered, int64 treatments),
        without validating them again."""
        ds = object.__new__(cls)
        for name, value in (("treatments", treatments), ("outcomes", outcomes),
                            ("covariates", covariates), ("column_labels", column_labels)):
            object.__setattr__(ds, name, value)
        return ds

    @property
    def n(self) -> int:
        return self.treatments.shape[0]

    @property
    def p(self) -> int:
        return self.outcomes.shape[1]

    @property
    def m(self) -> int:
        return 0 if self.covariates is None else self.covariates.shape[1]

    @property
    def n_treated(self) -> int:
        return int(self.treatments.sum())

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated

    def take_rows(self, indices) -> "TrialDataset":
        """Return the row subset ``indices`` (a 1-d index array) as a new
        dataset. Rows of a validated dataset need no validation beyond the
        index shape and the row count."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise DataError(f"row indices must be 1-d, got shape {idx.shape}")
        if idx.size < 2:
            raise DataError(f"dataset needs n >= 2 rows, got n={idx.size}")
        return TrialDataset._trusted(
            _freeze(self.treatments[idx]),
            _freeze(self.outcomes[idx]),
            None if self.covariates is None else _freeze(self.covariates[idx]),
            self.column_labels,
        )

    def restrict_outcomes(self, indices) -> "TrialDataset":
        """Return a dataset keeping only the outcome columns ``indices`` (a
        1-d array of indices in ``[0, p)``; a negative index is an error, not
        a count from the end); columns of a validated dataset need no
        validation."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise DataError(f"column indices must be 1-d, got shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.p):
            raise DataError(f"column indices out of range for p={self.p}: "
                            f"{idx[(idx < 0) | (idx >= self.p)].tolist()}")
        labels = None
        if self.column_labels is not None:
            labels = tuple(self.column_labels[j] for j in idx)
        return TrialDataset._trusted(self.treatments, _freeze(self.outcomes[:, idx]),
                                     self.covariates, labels)

    def replace_outcomes(self, outcomes, column_labels=None) -> "TrialDataset":
        """Return a dataset with ``outcomes`` swapped in (same rows, treatments,
        covariates). Only the new outcomes and labels are validated."""
        y = _outcome_array(np.asarray(outcomes, dtype=np.float64), self.n)
        return TrialDataset._trusted(self.treatments, y, self.covariates,
                                     _labels(column_labels, y.shape[1]))


@dataclass(frozen=True)
class SplitPair:
    """Two disjoint row subsets of a parent dataset plus the seed that made them."""

    first: TrialDataset
    second: TrialDataset
    split_seed: int


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for CSV ingestion: one treatment column, outcome columns,
    optional covariate columns."""

    treatment: str
    outcomes: tuple[str, ...]
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if not self.outcomes:
            raise DataError("schema needs at least one outcome column")
        names = [self.treatment, *self.outcomes, *self.covariates]
        seen = set()
        for name in names:
            if name in seen:
                raise DataError(f"column {name!r} appears twice in the schema")
            seen.add(name)


def _parse_cell(raw: str, row: int, column: str) -> float:
    text = raw.strip()
    if text == "":
        raise DataError(f"missing value in column {column!r} at data row {row}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"non-numeric value {raw!r} in column {column!r} at data row {row}"
        ) from None
    if not np.isfinite(value):
        raise DataError(
            f"non-finite value {raw!r} in column {column!r} at data row {row}"
        )
    return value


def _schema_columns(header, schema: CsvSchema, path) -> list[int]:
    """Header positions of the schema's columns, in schema order."""
    where: dict[str, list[int]] = {}
    for k, h in enumerate(header):
        where.setdefault(h.strip(), []).append(k)
    columns = []
    for name in (schema.treatment, *schema.outcomes, *schema.covariates):
        matches = where.get(name, ())
        if not matches:
            raise DataError(f"column {name!r} not found in header of {path}")
        if len(matches) > 1:
            raise DataError(f"column {name!r} is duplicated in header of {path}")
        columns.append(matches[0])
    return columns


def _parse_block(handle, width: int, columns: list[int]) -> np.ndarray | None:
    """The ``columns`` of the data block, in that order, in one
    ``np.loadtxt`` pass, or ``None`` where the block has fewer than two rows,
    holds a quote, or has a line of other than ``width`` cells.

    ``handle`` is opened with ``newline=""`` and read past the header, so its
    lines end at ``\\r``, ``\\n`` or ``\\r\\n``, as ``csv.reader`` ends a record.
    Each line is checked as ``np.loadtxt`` reads it, so the block is never
    held as text and the peak memory of a load is that of its values, not
    of a whole-file string and its split lines (twice the file). Without a
    quote, a record's cells are its comma-separated pieces, so the cell
    count of every line is checked here (``usecols`` takes long rows
    silently). Cells outside ``columns`` are not parsed, so a text column
    does not leave this path. Anything in ``columns`` that ``float`` does
    not take makes ``np.loadtxt`` raise ``ValueError``; the numbers it does
    take are a subset of those ``float(cell.strip())`` takes, with the same
    value.
    """
    rows = 0   # the lines passed on; -1 once a line is not taken

    def checked_lines():
        nonlocal rows
        for line in handle:
            line = line.rstrip("\r\n")
            if '"' in line or line.count(",") != width - 1:
                rows = -1
                return
            rows += 1
            yield line

    lines = checked_lines()
    first = list(islice(lines, 2))
    if len(first) < 2:
        return None
    values = np.loadtxt(chain(first, lines), delimiter=",", comments=None, ndmin=2,
                        usecols=columns)
    return values if values.shape == (rows, len(columns)) else None


def _parse_rows(rows, schema: CsvSchema, columns: list[int], width: int) -> np.ndarray:
    """The schema's columns, parsed one cell at a time; raises at the first
    bad cell or row with its 1-based data row number."""
    others = list(zip(columns[1:], (*schema.outcomes, *schema.covariates)))
    parsed = []
    for row_num, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(
                f"data row {row_num} has {len(row)} cells, expected {width}"
            )
        t_val = _parse_cell(row[columns[0]], row_num, schema.treatment)
        if t_val not in (0.0, 1.0):
            raise DataError(
                f"treatment value must be 0 or 1; found {t_val!r} "
                f"in column {schema.treatment!r} at data row {row_num}"
            )
        parsed.append([t_val, *(_parse_cell(row[k], row_num, c) for k, c in others)])
    return np.array(parsed, dtype=np.float64).reshape(len(parsed), len(columns))


# A data block is parsed in parallel when it holds at least two parts of
# this many bytes: the crossover of two children against one pass, measured
# on 2 vCPUs as each load in a loop of CLI commands (median load time, serial
# against parallel): 2.1 MB of 550-column rows 59-62 against 81-84 ms,
# 8.5 MB of them 225-246 against 168-234 ms, 8.5 MB of 4011-column rows
# 232-239 against 151-158 ms, 39 MB 945 against 572 ms. Loads alone in a
# loop cross over near 2 MB, but amid a program's other work the forks, the
# write faults they leave the parent and a second CPU slow to take up a
# child cost more.
_PART_MIN_BYTES = 4 << 20


def _line_end(raw, pos: int) -> int | None:
    """The offset just past the first ``\\n`` at or after ``pos`` of the
    binary file ``raw``, or ``None`` where none follows."""
    raw.seek(pos)
    while chunk := raw.read(1 << 16):
        k = chunk.find(b"\n")
        if k >= 0:
            return pos + k + 1
        pos += len(chunk)
    return None


def _part_ranges(path) -> list[tuple[int, int]]:
    """Byte ranges that cover the data block in order, each ending just past
    a ``\\n`` (the last at the end of the file): as many as the process's
    affinity set has CPUs, but no more than parts of ``_PART_MIN_BYTES``
    the block holds. ``[]`` where the block is parsed serially: off Linux,
    with fewer than two ranges, or where the header holds a quote or ends
    other than at ``\\n`` or ``\\r\\n`` (a CR-only file has no ``\\n`` to
    cut at)."""
    if not sys.platform.startswith("linux"):
        return []
    with open(path, "rb") as raw:
        start, size = _line_end(raw, 0), os.fstat(raw.fileno()).st_size
        if start is None:
            return []
        raw.seek(0)
        header = raw.read(start)
        if b'"' in header or b"\r" in header[:-2]:
            return []
        parts = min(len(os.sched_getaffinity(0)), (size - start) // _PART_MIN_BYTES)
        cuts = [start]
        for k in range(1, parts):
            # the first line that starts at or after the k-th even cut
            cut = _line_end(raw, max(cuts[-1], start + k * (size - start) // parts - 1))
            if cut is None or cut >= size:
                break
            cuts.append(cut)
    ranges = list(zip(cuts, [*cuts[1:], size]))
    return ranges if len(ranges) > 1 else []


def _fill(fd: int, out: np.ndarray) -> bool:
    """Read the bytes of the C-ordered ``out`` from the pipe ``fd``;
    ``False`` where the pipe ends first."""
    view = memoryview(out).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _parse_parallel(path, ranges, width: int, columns: list[int]) -> np.ndarray | None:
    """The block :func:`_parse_block` reads, parsed one byte range of
    ``ranges`` per forked child, or ``None`` where a part is not taken: a
    child's :func:`_parse_block` returns ``None`` or raises (a decode error
    among them), or the child dies before it has sent its part.

    A child parses its range and writes its ``(rows, cols)`` and raw values
    to a pipe, then leaves through ``os._exit`` in a ``finally``: it never
    returns into the caller's frames and never flushes the stdio buffers it
    inherited. The parent reads each part into its rows of one block, so it
    holds the values once, and reaps every child, killing those still
    running when it stops early (a part not taken, an error, an interrupt).
    """
    pids, reads, block = [], [], None
    try:
        for lo, hi in ranges:
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        for fd in reads:
                            os.close(fd)
                        with open(path, "rb") as raw:
                            raw.seek(lo)
                            part = io.BytesIO(raw.read(hi - lo))
                        values = _parse_block(io.TextIOWrapper(part, encoding="utf-8", newline=""),
                                              width, columns)
                        if values is not None:
                            with open(w, "wb", closefd=False) as out:
                                out.write(np.array(values.shape, np.int64).tobytes())
                                out.write(values.data)
                    finally:
                        os._exit(0)
            finally:
                os.close(w)
            pids.append(pid)
        shapes = [np.zeros(2, np.int64) for _ in reads]
        if not all(_fill(r, shape) for r, shape in zip(reads, shapes)):
            return None
        bounds = np.cumsum([0, *(int(shape[0]) for shape in shapes)]).tolist()
        out = np.empty((bounds[-1], len(columns)))
        if all(_fill(r, out[a:b]) for r, a, b in zip(reads, bounds, bounds[1:])):
            block = out
        return block
    except OSError:
        return None
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            if block is None:   # an unreaped child, even one that has exited, takes a signal
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def load_csv(path, schema: CsvSchema) -> TrialDataset:
    """Read a trial dataset from a CSV file with a header row.

    The schema's columns of the data block are parsed in one vectorized
    pass; other columns may hold any unquoted text. A block that pass does
    not take (a quote anywhere, a blank or ragged row, a schema cell
    ``np.loadtxt`` rejects) or whose schema columns hold a non-finite value
    or a treatment other than 0/1 is parsed again cell by cell with
    ``float(cell.strip())``, which either reads it or raises the error that
    names the first bad cell. Either way the result and every error are those
    of the cell-by-cell parser. Rows are reported 1-based (excluding the
    header) in error messages. Missing values are rejected, never imputed.
    The file is read as UTF-8; a leading byte-order mark is skipped, and a
    byte sequence that is not UTF-8 is a :class:`DataError`.

    The vectorized pass takes one of two routes. On Linux, a block of at
    least two parts of 4 MiB is cut at line ends into as many parts as the
    process's affinity set has CPUs (``taskset`` limits them), and forked
    children parse the parts at once; the parent reads them into one block.
    A load stays serial, one pass in this process, for a smaller block, one
    CPU, a CR-only file, or a header holding a quote; and where any part is
    not taken (a child's part would not pass, or a child dies), the whole
    block takes the serial route, so results and errors do not depend on
    the route. The serial route's traced peak is 1.25 times the parsed
    values (``np.loadtxt``'s growing buffer); the parallel one's is the
    values and the header, 1.03 times on a 500 x 4011 block.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            try:
                header = next(csv.reader(handle))
            except StopIteration:
                raise DataError(f"{path} is empty") from None
            columns = _schema_columns(header, schema, path)
            ranges = _part_ranges(path)
            block = _parse_parallel(path, ranges, len(header), columns) if ranges else None
            if block is None:
                try:
                    block = _parse_block(handle, len(header), columns)
                except ValueError:   # UnicodeDecodeError among them
                    block = None
        if block is not None:
            # a NaN or an infinity is the minimum or the maximum of the block
            finite = np.isfinite([block.min(), block.max()]).all()
            if not (finite and np.isin(block[:, 0], (0.0, 1.0)).all()):
                block = None
        if block is None:
            with open(path, newline="", encoding="utf-8-sig") as handle:
                reader = csv.reader(handle)
                next(reader)
                block = _parse_rows(reader, schema, columns, len(header))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if block.shape[0] < 2:
        raise DataError(f"{path} has {block.shape[0]} data rows; n >= 2 required")
    return TrialDataset._trusted(*_split_block(block, len(schema.outcomes)), schema.outcomes)


def _split_block(block: np.ndarray, p: int) -> tuple:
    """The treatments, outcomes and covariates (``None`` without any) of a
    validated ``(n, 1 + p + m)`` block, frozen as ``__post_init__`` leaves
    them, the last two in the block's buffer: in row order, row ``i``'s
    outcomes move from offset ``i (1 + p + m) + 1`` to ``i p``, overwriting no
    row not yet moved, and the covariates, copied out first, follow them."""
    n, width = block.shape
    treatments, covariates = _frozen_array(block[:, 0], np.int64), np.array(block[:, 1 + p:])
    flat = block.reshape(-1)
    for i in range(n):
        flat[i * p:(i + 1) * p] = flat[i * width + 1:i * width + 1 + p]
    flat[n * p:n * (width - 1)] = covariates.reshape(-1)
    covariates = _freeze(flat[n * p:n * (width - 1)].reshape(n, -1)) if width > 1 + p else None
    return treatments, _freeze(flat[:n * p].reshape(n, p)), covariates


def write_csv(ds: TrialDataset, path) -> CsvSchema:
    """Write ``ds`` to CSV with a header and return the schema that reads it back.

    Floats are written in shortest round-trip form, so a load/write/load
    cycle reproduces values bit for bit.
    """
    outcome_names = ds.column_labels or tuple(f"y{j}" for j in range(ds.p))
    covariate_names = tuple(f"x{k}" for k in range(ds.m))
    schema = CsvSchema("treatment", outcome_names, covariate_names)
    covariates = ds.covariates if ds.covariates is not None else np.empty((ds.n, 0))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(["treatment", *outcome_names, *covariate_names])
        # A number never needs quoting, so data rows are joined as csv.writer
        # would write them, without its per-field checks. Rows are converted
        # one at a time, so no Python copy of the whole matrix is held.
        for t, outcomes, covs in zip(ds.treatments.tolist(), ds.outcomes, covariates):
            handle.write(",".join([str(t), *map(repr, outcomes.tolist()),
                                   *map(repr, covs.tolist())]) + "\r\n")
    return schema


def split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (each sorted ascending) for a two-way random split."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    n_first = int(np.floor(fraction * n + 0.5))
    if n_first < 2 or n - n_first < 2:
        raise DataError(
            f"split of n={n} at fraction={fraction} leaves a part with fewer than 2 rows"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=n_first, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def random_split(ds: TrialDataset, fraction: float, seed: int) -> SplitPair:
    """Split ``ds`` into two disjoint row subsets, deterministically in ``seed``.

    Rows keep their original relative order within each part, so concatenating
    the parts and sorting by parent row index recovers the parent dataset.
    """
    first_idx, second_idx = split_indices(ds.n, fraction, seed)
    return SplitPair(ds.take_rows(first_idx), ds.take_rows(second_idx), int(seed))


def _group_index(grouping, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The groups' column indices laid end to end, and each group's width;
    raises :class:`DataError` for no group, an empty group or an index
    outside ``[0, p)``."""
    widths = np.fromiter(map(len, grouping), dtype=np.intp)
    if widths.size == 0:
        raise DataError("grouping needs at least one group")
    if not widths.all():
        raise DataError(f"group {int(np.argmin(widths))} is empty")
    idx = np.fromiter(chain.from_iterable(grouping), dtype=np.intp, count=int(widths.sum()))
    bad = (idx < 0) | (idx >= p)
    if bad.any():
        k = int(np.searchsorted(np.cumsum(widths), bad.argmax(), side="right"))
        raise DataError(f"group {k} has column indices out of range for p={p}")
    return idx, widths


def check_grouping(ds: TrialDataset, grouping) -> None:
    """Raise :class:`DataError` unless ``grouping`` is a valid column grouping
    of ``ds`` for :func:`aggregate_columns`: at least one group, no empty
    group, every index an outcome column, and covariates (if any) laid out
    like the outcomes."""
    _group_index(grouping, ds.p)
    if ds.covariates is not None and ds.m != ds.p:
        raise DataError(
            "column grouping needs covariates with the same base layout "
            f"as outcomes (m={ds.m}, p={ds.p})"
        )


def column_group_means(matrix, grouping) -> np.ndarray:
    """Column ``g`` of the result is the row-wise mean of the columns of
    ``matrix`` listed in group ``g`` of ``grouping``.

    Groups of one width are averaged together in one pass, bit for bit the
    per-group ``matrix[:, group].mean(axis=1)``; no averaging matrix is formed.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    idx, widths = _group_index(grouping, arr.shape[1])
    n, k = arr.shape[0], widths.size
    starts = np.cumsum(widths) - widths
    out = np.empty((n, k))
    for width in np.unique(widths).tolist():
        chosen = np.flatnonzero(widths == width)
        cols = idx[(starts[chosen, None] + np.arange(width)).ravel()]
        out[:, chosen] = arr[:, cols].reshape(n, chosen.size, width).mean(axis=2)
    return out


def aggregate_columns(ds: TrialDataset, grouping) -> TrialDataset:
    """Average outcome (and covariate) columns over index groups.

    ``grouping`` is a sequence of index lists into the outcome columns; group
    ``g`` of the result is the row-wise mean of the listed columns (see
    :func:`column_group_means`). When covariates are present the same
    grouping is applied to them, so both sides must share the base column
    layout (:func:`check_grouping`). Groups are expected to cover windows of
    equal width, which makes the plain mean the right aggregate. The means of
    a validated dataset are checked only for overflow.
    """
    check_grouping(ds, grouping)
    outcomes = column_group_means(ds.outcomes, grouping)
    covariates = None
    if ds.covariates is not None:
        covariates = _freeze(column_group_means(ds.covariates, grouping))
    if not (np.isfinite(outcomes).all()
            and (covariates is None or np.isfinite(covariates).all())):
        raise DataError("column means overflow to non-finite values")
    return TrialDataset._trusted(ds.treatments, _freeze(outcomes), covariates, None)


def center_columns(matrix, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Subtract (weighted) column means; returns ``(centered, means)``.

    With ``weights`` the mean is ``sum(w_i * M_ik) / sum(w_i)``. The input is
    never modified.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DataError(f"expected a vector or matrix, got shape {arr.shape}")
    if weights is None:
        means = arr.mean(axis=0)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (arr.shape[0],):
            raise DataError(
                f"weights shape {w.shape} does not match {arr.shape[0]} rows"
            )
        if np.any(w < 0):
            raise DataError("weights must be nonnegative")
        total = w.sum()
        if total <= 0:
            raise DataError("weights sum to zero")
        means = w @ arr / total
    centered = arr - means
    if squeeze:
        return centered[:, 0], means[0]
    return centered, means


def check_full_rank(r: np.ndarray, n: int, what: str) -> None:
    """Raise :class:`NumericalError` naming ``what`` unless the ``(n, m)``
    matrix with QR factor ``r`` has rank ``m``, counted as ``np.linalg.lstsq``
    counts it: singular values above ``eps * max(n, m)`` times the largest."""
    m = r.shape[1]
    sv = np.linalg.svd(r, compute_uv=False)
    cutoff = np.finfo(np.float64).eps * max(n, m) * sv.max(initial=0.0)
    rank = int((sv > cutoff).sum())
    if rank < m:
        raise NumericalError(f"singular {what} (rank {rank} < m={m})")


def solve_nonsingular(matrix: np.ndarray, rhs: np.ndarray, what: str,
                      subset) -> np.ndarray:
    """``matrix^{-1} rhs`` for the small symmetric ``matrix`` of the outcome
    columns ``subset``. Raises :class:`NumericalError` naming ``what`` and
    the subset where the ratio of its smallest to its largest eigenvalue is
    at most 1e-12: the one singularity rule of the subset regression and the
    group statistic."""
    eigvals = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        raise NumericalError(
            f"singular {what} for subset {tuple(int(j) for j in subset)} "
            f"(eigenvalue ratio {eigvals[0] / max(eigvals[-1], 1e-300):.2e})"
        )
    return np.linalg.solve(matrix, rhs)


def project_columns(design: np.ndarray, columns: np.ndarray,
                    what: str) -> tuple[np.ndarray, np.ndarray]:
    """The slopes ``R^{-1} Q' C`` of the ``(n, k)`` columns ``C`` on a
    centered ``(n, m)`` covariate design ``Q R`` and their residuals ``C -
    Q Q' C``, orthogonal to the design however ill-conditioned it is. A
    weighted regression passes both with rows scaled by ``sqrt(w)``. A design
    of rank below ``m`` (:func:`check_full_rank`) raises, naming ``what``."""
    q, r = np.linalg.qr(design)
    check_full_rank(r, design.shape[0], what)
    coef = q.T @ columns
    residuals = q @ coef
    np.subtract(columns, residuals, out=residuals)
    return np.linalg.solve(r, coef), residuals
