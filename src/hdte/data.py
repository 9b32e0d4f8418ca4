"""Trial data containers, CSV ingestion, and deterministic sample splitting."""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .forking import cpu_count, fill, run_forked

__all__ = [
    "TrialDataset",
    "CsvSchema",
    "load_csv",
    "write_csv",
    "split_indices",
    "center_columns",
    "column_group_means",
    "aggregate_columns",
]


def _freeze(fresh: np.ndarray) -> np.ndarray:
    """``fresh`` (an array no one else holds) C-ordered and read-only."""
    out = np.ascontiguousarray(fresh)
    out.setflags(write=False)
    return out


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only C-ordered array of ``dtype``: a copy, unless
    ``values`` already is such an array and owns its data, which is kept (so
    a caller hands a fresh array over by making it read-only)."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype and values.flags.owndata
            and values.flags.c_contiguous and not values.flags.writeable):
        return values
    return _freeze(np.array(values, dtype=dtype, order="C"))


def _finite(block: np.ndarray) -> bool:
    """Whether every value of ``block`` is finite, without an array of flags:
    a NaN or an infinity is its minimum or its maximum."""
    return bool(np.isfinite([block.min(initial=0.0), block.max(initial=0.0)]).all())


def _outcome_array(y: np.ndarray, n: int) -> np.ndarray:
    """Float outcomes ``y`` checked against ``n`` treatments, frozen."""
    if y.ndim != 2:
        raise DataError(f"outcomes must be 2-d, got shape {y.shape}")
    if y.shape[0] != n:
        raise DataError(f"outcomes have {y.shape[0]} rows but treatments have {n}")
    if not _finite(y):
        raise DataError("outcomes contain non-finite values")
    return _frozen_array(y)


def check_treatments(t: np.ndarray) -> np.ndarray:
    """The treatments array ``t`` as floats, each 0 or 1; else a
    :class:`DataError` naming the first other value, as given, and its row."""
    t_float = t.astype(np.float64)
    bad = np.flatnonzero((t_float != 0.0) & (t_float != 1.0))
    if bad.size:
        raise DataError(f"treatment values must be 0 or 1; "
                        f"found {t[bad[0]].item()!r} at row {bad[0]}")
    return t_float


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
    be shared freely. A read-only, C-ordered float array that owns its data is
    kept as it is, not copied: a generator hands its fresh outcome matrix over
    by making it read-only, so the data are held once. ``outcomes`` is ``(n,
    p)``, ``covariates`` is ``(n, m)`` when present, and ``column_labels``
    (optional) names the ``p`` outcome columns.
    """

    treatments: np.ndarray
    outcomes: np.ndarray
    covariates: np.ndarray | None = None
    column_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        t = np.asarray(self.treatments)
        if t.ndim != 1:
            raise DataError(f"treatments must be 1-d, got shape {t.shape}")
        t_float = check_treatments(t)
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
            if not _finite(x):
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

    def usable_estimator(self, method: str) -> str:
        """``method``, or the unadjusted ``"dim"`` where there are no covariates."""
        return method if self.covariates is not None else "dim"

    def take_rows(self, indices) -> "TrialDataset":
        """Return the row subset ``indices`` (checked by :func:`check_rows`)
        as a new dataset. Rows of a validated dataset need no validation
        beyond the indices."""
        idx = check_rows(indices, self.n)
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


def check_rows(indices, n: int) -> np.ndarray:
    """``indices`` as a 1-d index array of at least two rows, each in ``[0,
    n)`` (a negative index is an error, not a count from the end); else a
    :class:`DataError`."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DataError(f"row indices must be 1-d, got shape {idx.shape}")
    if idx.size < 2:
        raise DataError(f"dataset needs n >= 2 rows, got n={idx.size}")
    if idx.min() < 0 or idx.max() >= n:
        raise DataError(f"row indices out of range for n={n}: "
                        f"{idx[(idx < 0) | (idx >= n)].tolist()}")
    return idx


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for CSV ingestion: one treatment column, outcome columns,
    optional covariate columns. Header names are matched stripped, so a name
    with surrounding whitespace, which no header could match, is an error."""

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
            if name != name.strip():
                raise DataError(f"column {name!r} has surrounding whitespace")
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


# A data block is parsed, and a CSV written, in parallel when it holds at
# least two parts of this many bytes. For a load it is the crossover of two
# children against one pass, measured on 2 vCPUs as each load in a loop of
# CLI commands (median load time, serial against parallel): 2.1 MB of
# 550-column rows 59-62 against 81-84 ms, 8.5 MB of them 225-246 against
# 168-234 ms, 8.5 MB of 4011-column rows 232-239 against 151-158 ms, 39 MB
# 945 against 572 ms. Loads alone in a loop cross over near 2 MB, but amid a
# program's other work the forks, the write faults they leave the parent and
# a second CPU slow to take up a child cost more. Writes alone in a loop,
# on the same CPUs, cross over lower still (median write, serial against
# two parts, 550-column rows: 0.54 MB 33 against 23 ms, 2.2 MB 138 against
# 79 ms, 8.6 MB 388 against 281 ms), but they keep this bound, so a file
# under 8 MiB, such as a 2.1 MB design, is written in one pass.
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
    cpus = cpu_count()
    if cpus < 2:
        return []
    with open(path, "rb") as raw:
        start, size = _line_end(raw, 0), os.fstat(raw.fileno()).st_size
        if start is None:
            return []
        raw.seek(0)
        header = raw.read(start)
        if b'"' in header or b"\r" in header[:-2]:
            return []
        parts = min(cpus, (size - start) // _PART_MIN_BYTES)
        cuts = [start]
        for k in range(1, parts):
            # the first line that starts at or after the k-th even cut
            cut = _line_end(raw, max(cuts[-1], start + k * (size - start) // parts - 1))
            if cut is None or cut >= size:
                break
            cuts.append(cut)
    ranges = list(zip(cuts, [*cuts[1:], size]))
    return ranges if len(ranges) > 1 else []


def _parse_parallel(path, ranges, width: int, columns: list[int]) -> np.ndarray | None:
    """The block :func:`_parse_block` reads, parsed one byte range of
    ``ranges`` per forked child (:func:`hdte.forking.run_forked`), or
    ``None`` where a part is not taken: a child's :func:`_parse_block`
    returns ``None`` or raises (a decode error among them), or the child
    dies before it has sent its part.

    A child parses its range and writes its ``(rows, cols)`` and raw values
    to its pipe. The parent reads each part into its rows of one block, so
    it holds the values once.
    """
    def write(k: int, fd: int) -> None:
        lo, hi = ranges[k]
        with open(path, "rb") as raw:
            raw.seek(lo)
            part = io.BytesIO(raw.read(hi - lo))
        values = _parse_block(io.TextIOWrapper(part, encoding="utf-8", newline=""),
                              width, columns)
        if values is not None:
            with open(fd, "wb", closefd=False) as out:
                out.write(np.array(values.shape, np.int64).tobytes())
                out.write(values.data)

    def read(fds: list[int]) -> np.ndarray | None:
        shapes = [np.zeros(2, np.int64) for _ in fds]
        if not all(fill(fd, shape) for fd, shape in zip(fds, shapes)):
            return None
        bounds = np.cumsum([0, *(int(shape[0]) for shape in shapes)]).tolist()
        block = np.empty((bounds[-1], len(columns)))
        if all(fill(fd, block[a:b]) for fd, a, b in zip(fds, bounds, bounds[1:])):
            return block
        return None

    return run_forked(len(ranges), write, read)


@contextmanager
def open_text(path):
    """``path`` open for reading as UTF-8 text, a leading byte-order mark
    skipped and line ends left to the ``csv`` module. A byte sequence that
    is not UTF-8, met anywhere in the ``with`` block, is a
    :class:`DataError` naming ``path``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None


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
    with open_text(path) as handle:
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
    if block is not None and not (_finite(block)
                                  and np.isin(block[:, 0], (0.0, 1.0)).all()):
        block = None
    if block is None:
        with open_text(path) as handle:
            reader = csv.reader(handle)
            next(reader)
            block = _parse_rows(reader, schema, columns, len(header))
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


def _line(t: int, outcomes: np.ndarray, covariates: np.ndarray) -> bytes:
    """One data row of :func:`write_csv`, UTF-8 encoded. A number never needs
    quoting, so the cells are joined as ``csv.writer`` would write them,
    without its per-field checks."""
    return (",".join([str(t), *map(repr, outcomes.tolist()), *map(repr, covariates.tolist())])
            + "\r\n").encode("utf-8")


def _write_lines(out, rows) -> None:
    """Write each row of ``rows`` to the binary file ``out`` as its
    :func:`_line`, converting one row at a time, so no Python copy of the
    whole matrix is held."""
    for row in rows:
        out.write(_line(*row))


# A child's part is copied from its pipe into the file through a buffer of
# this many bytes, a pipe's default capacity: no read returns more.
_COPY_BYTES = 1 << 16


def _write_parallel(out, rows, bounds: list[int]) -> bool:
    """Write the rows ``bounds[0]:bounds[-1]`` to ``out`` (a flushed binary
    file) as :func:`_write_lines` writes them, in one part per pair of
    consecutive bounds. ``False`` where :func:`hdte.forking.run_forked`
    returns ``None`` (a fork or a pipe failed); rows may then have been
    written, and the caller writes them again.

    This process writes part 0, while forked children format the others:
    child ``k`` formats part ``k + 1`` into memory and sends its length and
    then its bytes. This process then copies each child's part into the
    file in order, :data:`_COPY_BYTES` at a time. A part that arrives short
    (its child raised or died) is truncated away and written here, so the
    file's bytes are those of the serial route whatever the children do.
    """
    def write(k: int, fd: int) -> None:
        part = io.BytesIO()
        _write_lines(part, rows(bounds[k + 1], bounds[k + 2]))
        view = part.getbuffer()
        with open(fd, "wb", closefd=False) as pipe:
            pipe.write(len(view).to_bytes(8, "little"))
            pipe.write(view)

    def read(fds: list[int]) -> bool:
        _write_lines(out, rows(bounds[0], bounds[1]))
        size, chunk = bytearray(8), memoryview(bytearray(_COPY_BYTES))
        for fd, lo, hi in zip(fds, bounds[1:], bounds[2:]):
            start = out.tell()
            left = int.from_bytes(size, "little") if fill(fd, size) else -1
            while left > 0 and (got := os.readv(fd, [chunk[:left]])):
                out.write(chunk[:got])
                left -= got
            if left:
                out.seek(start)
                out.truncate()
                _write_lines(out, rows(lo, hi))
        return True

    return run_forked(len(bounds) - 2, write, read) is not None


def write_csv(ds: TrialDataset, path) -> CsvSchema:
    """Write ``ds`` to CSV with a header and return the schema that reads it back.

    Floats are written in shortest round-trip form, so a load/write/load
    cycle reproduces values bit for bit. The file is UTF-8 whatever the
    locale, with ``\\r\\n`` line ends. A column label with surrounding
    whitespace raises :class:`DataError` (:class:`CsvSchema`) before the file
    is created.

    On Linux, a file estimated (the first row's length times ``n``) at two
    or more parts of 4 MiB is written in contiguous row parts, as many as
    the process's affinity set has CPUs and no more than such parts: this
    process writes the first while forked children format the others
    (:func:`_write_parallel`). The bytes are the same on either route, and
    this process holds no part: its traced peak is the serial route's plus
    a 64 KiB copy buffer.
    """
    outcome_names = ds.column_labels or tuple(f"y{j}" for j in range(ds.p))
    covariate_names = tuple(f"x{k}" for k in range(ds.m))
    schema = CsvSchema("treatment", outcome_names, covariate_names)
    covariates = ds.covariates if ds.covariates is not None else np.empty((ds.n, 0))

    def rows(lo: int, hi: int):
        return zip(ds.treatments[lo:hi].tolist(), ds.outcomes[lo:hi], covariates[lo:hi])

    header = io.StringIO()
    csv.writer(header).writerow(["treatment", *outcome_names, *covariate_names])
    parts = min(cpu_count(), ds.n * len(_line(*next(rows(0, 1)))) // _PART_MIN_BYTES)
    with open(path, "wb") as out:
        out.write(header.getvalue().encode("utf-8"))
        if parts > 1:
            start = out.tell()
            out.flush()   # so no child inherits buffered bytes of the file
            if _write_parallel(out, rows, [ds.n * k // parts for k in range(parts + 1)]):
                return schema
            out.seek(start)
            out.truncate()
        _write_lines(out, rows(0, ds.n))
    return schema


def check_seed(seed: int) -> None:
    """Raise :class:`DataError` for a negative ``seed``, which numpy's seeds
    reject: the one seed rule of the splits and the experiments."""
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")


def split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of a two-way random split, deterministic in ``seed``: the
    first part's ``floor(fraction * n + 0.5)`` rows and the rest, each
    ascending, so ``ds.take_rows`` of either keeps the rows' order."""
    check_seed(seed)
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


def _derive_plan(grouping, p: int) -> tuple[int, tuple]:
    """The number of groups, and per group width (ascending) the width, the
    groups of that width and their column indices laid end to end; raises
    :class:`DataError` for no group, an empty group or an index outside
    ``[0, p)``."""
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
    starts = np.cumsum(widths) - widths
    parts = []
    for width in np.unique(widths).tolist():
        chosen = np.flatnonzero(widths == width)
        cols = idx[(starts[chosen, None] + np.arange(width)).ravel()]
        parts.append((width, _freeze(chosen), _freeze(cols)))
    return widths.size, tuple(parts)


# Plans of hashable groupings (the tuples SelectionSpec and
# window_level_groupings build) by (grouping, p), oldest dropped first.
_PLANS: dict = {}
_PLANS_KEPT = 64


def _group_plan(grouping, p: int) -> tuple:
    """:func:`_derive_plan` of ``grouping`` for ``p`` columns, derived once per
    hashable grouping and ``p``; an unhashable grouping (a list) is planned
    on every call. A grouping that fails is planned again, and raises again,
    on every call."""
    try:
        plan = _PLANS.get((grouping, p))
    except TypeError:
        return _derive_plan(grouping, p)
    if plan is None:
        plan = _derive_plan(grouping, p)
        if len(_PLANS) >= _PLANS_KEPT:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[grouping, p] = plan
    return plan


def check_grouping(ds: TrialDataset, grouping) -> None:
    """Raise :class:`DataError` unless ``grouping`` is a valid column grouping
    of ``ds`` for :func:`aggregate_columns`: at least one group, no empty
    group, every index an outcome column, and covariates (if any) laid out
    like the outcomes. A tuple grouping is checked against ``ds.p`` columns
    once, when its plan is derived."""
    _group_plan(grouping, ds.p)
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
    Which columns each pass reads is planned once per tuple grouping and
    column count.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    groups, parts = _group_plan(grouping, arr.shape[1])
    n = arr.shape[0]
    out = np.empty((n, groups))
    for width, chosen, cols in parts:
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


def center_columns(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Subtract column means; returns ``(centered, means)``. The input is
    never modified.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DataError(f"expected a vector or matrix, got shape {arr.shape}")
    means = arr.mean(axis=0)
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


def covariate_coefficients(design: np.ndarray, columns: np.ndarray,
                           what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The regression of the ``(n, k)`` columns ``C`` on a centered ``(n, m)``
    covariate design ``Q R``: ``Q``, ``Q' C`` and the slopes ``R^{-1} Q' C``.
    A caller that needs the residuals forms ``C - Q (Q' C)``, orthogonal to
    the design however ill-conditioned it is. A weighted regression passes
    both with rows scaled by ``sqrt(w)``; a design of rank below ``m``
    (:func:`check_full_rank`) raises, naming ``what``."""
    q, r = np.linalg.qr(design)
    check_full_rank(r, design.shape[0], what)
    coef = q.T @ columns
    return q, coef, np.linalg.solve(r, coef)
