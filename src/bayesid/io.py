"""Every file the package reads or writes, plus preprocessing.

Files are opened only through ``open_input`` and ``open_output``, and
output directories are created only through ``make_output_dir``. Input is
read as UTF-8; a file that is missing, is a directory, cannot be read or
does not decode raises InputError. An output file or directory that
cannot be created raises ConfigurationError.

Two matrix formats are supported. CSV holds a dense matrix, one row per
line, where an empty field marks an unobserved entry. MatrixMarket
coordinate files list observed entries with 1-based indices; everything
not listed is unobserved. Every CSV goes through ``write_csv``: the csv
module's default dialect (RFC 4180 quoting where needed, CRLF line ends),
floats with 17 significant digits so a save/load round trip is exact, and
None as an empty field. JSON goes through ``write_json`` with sorted keys.

Every CSV is read through the csv module's reader (``_csv_rows``): it may
use RFC 4180 quoting, whitespace around a field, LF, CRLF or lone CR line
ends, and any UTF-8 text in a skipped header. A field is a number as
Python's ``float`` reads it once stripped of whitespace, and a field that
is empty or holds only whitespace is an unobserved entry.

Every loader returns row-major arrays, and preprocessing keeps that
layout: ``preprocess_in_place`` runs the cleaning steps on a loaded
matrix's own arrays, so a command holds the matrix once, and
``preprocess`` runs the same steps on a copy.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError, ParseError
from .model import ObservedMatrix
from .sampler import GibbsTrace

FORMAT_CSV = "csv"
FORMAT_MATRIX_MARKET = "matrix_market"

_FLOAT_FMT = "%.17g"
_TRACE_BASE = ["iteration", "mse", "mse_observed", "sigma2"]

# bytes of a block of rows that preprocessing copies at a time
_BLOCK_BYTES = 1 << 16


@contextmanager
def open_input(path):
    """Open a UTF-8 text file for reading; an unusable file raises InputError."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _csv_rows(path, skip: int = 0):
    """Yield (1-based line number, fields) for each row after the first ``skip`` rows.

    The line number is the physical line the row ends on, so a quoted field
    that spans lines moves the numbers of the rows after it. Every yielded
    row must have as many fields as the first one.
    """
    width = None
    with open_input(path) as fh:
        reader = csv.reader(fh)
        for row in itertools.islice(reader, skip, None):
            line_no = reader.line_num
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"expected {width} fields, found {len(row)}", line=line_no)
            yield line_no, row


@contextmanager
def _creating(path):
    """Turn an OSError raised while creating ``path`` into ConfigurationError."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write {exc.filename or path}: {exc.strerror}") from None


def make_output_dir(path) -> list[Path]:
    """Create a directory and its parents; failure raises ConfigurationError.

    Returns the directories this call created, the leaf first, so a caller
    whose run fails can take them away again with ``remove_empty_dirs``.
    """
    path = Path(path)
    created = []
    for d in (path, *path.parents):
        if d.exists():
            break
        created.append(d)
    with _creating(path):
        path.mkdir(parents=True, exist_ok=True)
    return created


def remove_empty_dirs(dirs) -> None:
    """Remove the given directories in order, stopping at the first that is not empty."""
    for d in dirs:
        try:
            d.rmdir()
        except OSError:
            return


@contextmanager
def open_output(path):
    """Open a file for writing, creating its directory; failure raises ConfigurationError."""
    path = Path(path)
    make_output_dir(path.parent)
    with _creating(path):
        fh = open(path, "w", encoding="utf-8", newline="")
    with fh:
        yield fh


def write_csv(path, rows) -> None:
    """Write an iterable of rows; floats get 17 significant digits and None an empty field.

    A row of floats alone is written with one ``%`` of a format made once per
    width. That gives the bytes csv.writer gives, because the digits of a
    float never need quoting; every other row goes through csv.writer.
    """
    with open_output(path) as fh:
        writer = csv.writer(fh)
        width, row_fmt = -1, ""
        for row in rows:
            row = tuple(row)
            if set(map(type, row)) == {float}:
                if len(row) != width:
                    width = len(row)
                    row_fmt = ",".join([_FLOAT_FMT] * width) + "\r\n"
                fh.write(row_fmt % row)
            else:
                writer.writerow([_FLOAT_FMT % v if isinstance(v, float) else v for v in row])


def write_json(path, obj) -> None:
    """Write obj as indented JSON with sorted keys, so equal objects give equal bytes."""
    with open_output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _detect_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in (FORMAT_CSV, FORMAT_MATRIX_MARKET):
            raise ConfigurationError(f"unknown matrix format {fmt!r}")
        return fmt
    return FORMAT_MATRIX_MARKET if path.suffix.lower() in (".mtx", ".mm") else FORMAT_CSV


def load_matrix(path, fmt: str | None = None, has_header: bool = False) -> ObservedMatrix:
    """Read a matrix file into an ObservedMatrix.

    ``fmt`` is inferred from the extension when not given (.mtx/.mm mean
    MatrixMarket). ``has_header`` skips the first CSV row. Parse problems
    raise ParseError carrying the 1-based physical line (and field)
    location.
    """
    path = Path(path)
    if _detect_format(path, fmt) == FORMAT_CSV:
        return _csv_matrix(_csv_rows(path, skip=1 if has_header else 0))
    return _load_matrix_market(path)


def _csv_matrix(rows) -> ObservedMatrix:
    """Stack the (line number, fields) rows of ``_csv_rows`` into an ObservedMatrix.

    Each row becomes one array of values, with nan for an empty field; the
    rows fill one array that grows in place, so the matrix is held once.
    No field a row keeps can be nan, so the mask is where the values are
    not nan.
    """
    first = next(rows, None)
    if first is None:
        raise ParseError("file contains no data rows", line=1)
    line_no, row = first
    if not row:
        raise ParseError("empty row", line=line_no)
    values = np.fromiter((_row_values(*r) for r in itertools.chain([first], rows)),
                         dtype=(float, len(row)))
    mask = np.isnan(values)
    np.copyto(values, 0.0, where=mask)
    np.logical_not(mask, out=mask)
    return ObservedMatrix(values=values, mask=mask)


def _row_values(line_no: int, row: list[str]) -> np.ndarray | list[float]:
    """One row's values, nan for an empty field, read with one numpy call.

    numpy reads each string as ``float`` does. A row that call refuses (a
    field of only whitespace among them), or one holding a field it reads as
    nan or infinite, is read again by ``_field_values``, which reads the
    whitespace as empty and reports any fault.
    """
    try:
        vals = np.array([field or "nan" for field in row], dtype=float)
    except ValueError:
        return _field_values(line_no, row)
    if np.count_nonzero(np.isfinite(vals)) + row.count("") < vals.size:
        return _field_values(line_no, row)
    return vals


def _field_values(line_no: int, row: list[str]) -> list[float]:
    """One row's values read field by field, nan for a field that is empty
    or holds only whitespace; a field that is not a finite number raises
    ParseError at its line and column.
    """
    vals = []
    for col_no, field in enumerate(row, start=1):
        field = field.strip()
        if field == "":
            vals.append(math.nan)
            continue
        try:
            v = float(field)
        except ValueError:
            raise ParseError(f"not a number: {field!r}", line=line_no, column=col_no) from None
        if not math.isfinite(v):
            raise ParseError(f"non-finite value {field!r}", line=line_no, column=col_no)
        vals.append(v)
    return vals


def _load_matrix_market(path: Path) -> ObservedMatrix:
    with open_input(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", line=1)
    tokens = lines[0].split()
    if len(tokens) != 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
        raise ParseError("header must declare 'matrix coordinate'", line=1)
    if tokens[3] not in ("real", "integer") or tokens[4] != "general":
        raise ParseError(f"unsupported field/symmetry {tokens[3]!r}/{tokens[4]!r}", line=1)

    body = [(no, ln) for no, ln in enumerate(lines[1:], start=2) if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ParseError("missing size line", line=len(lines))
    size_no, size_line = body[0]
    parts = size_line.split()
    if len(parts) != 3:
        raise ParseError("size line must hold rows cols nnz", line=size_no)
    try:
        m, n, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad size line: {size_line!r}", line=size_no) from None
    if m < 1 or n < 1 or nnz < 0:
        raise ParseError(f"bad dimensions {m} x {n}, nnz {nnz}", line=size_no)

    values = np.zeros((m, n))
    mask = np.zeros((m, n), dtype=bool)
    entries = body[1:]
    if len(entries) != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(entries)}", line=entries[-1][0] if entries else size_no)
    for line_no, ln in entries:
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError("entry must hold row col value", line=line_no)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"bad entry: {ln!r}", line=line_no) from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise ParseError(f"index ({i}, {j}) outside {m} x {n}", line=line_no)
        if not math.isfinite(v):
            raise ParseError(f"non-finite value {parts[2]!r}", line=line_no)
        if mask[i - 1, j - 1]:
            raise ParseError(f"duplicate entry for ({i}, {j})", line=line_no)
        values[i - 1, j - 1] = v
        mask[i - 1, j - 1] = True
    return ObservedMatrix(values=values, mask=mask)


def save_matrix(path, data: ObservedMatrix, fmt: str | None = None) -> None:
    """Write an ObservedMatrix; the format round-trips through load_matrix."""
    path = Path(path)
    if _detect_format(path, fmt) == FORMAT_CSV:
        write_csv(path, (vals.tolist() if obs.all() else
                         [v if o else None for v, o in zip(vals.tolist(), obs.tolist())]
                         for vals, obs in zip(data.values, data.mask)))
    else:
        m, n = data.shape
        rows, cols = np.nonzero(data.mask)
        with open_output(path) as fh:
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{m} {n} {rows.size}\n")
            for i, j in zip(rows, cols):
                fh.write(f"{i + 1} {j + 1} {_FLOAT_FMT % data.values[i, j]}\n")


@dataclass
class PreprocessConfig:
    """Cleaning steps applied before a decomposition, in a fixed order:
    undo-log, cap, drop sparse rows/columns, standardize, zero-fill,
    duplicate columns.
    """

    cap_value: float | None = 100.0
    undo_log: bool = False
    standardize: bool = True
    duplicate_columns: bool = True
    min_observed_per_vector: int = 3

    def __post_init__(self):
        if self.cap_value is not None and not math.isfinite(self.cap_value):
            raise ConfigurationError(f"cap_value must be finite or None, got {self.cap_value}")
        if self.min_observed_per_vector < 0:
            raise ConfigurationError(
                f"min_observed_per_vector must be nonnegative, got {self.min_observed_per_vector}"
            )


def preprocess(data: ObservedMatrix, cfg: PreprocessConfig) -> ObservedMatrix:
    """Apply the configured cleaning pipeline to a copy of data and return it.

    Rows are dropped before columns are counted, so a column can fall short
    once sparse rows are gone; both go in one pass. Standardization works
    per column over its observed entries only; a column whose observed
    entries have zero variance stops the run with an error naming it, and
    a column with no observed entries (possible only with
    ``min_observed_per_vector=0``) stays zero. Unobserved entries are
    stored as zero in the result. Duplication appends a full copy, so
    column n + N is the twin of column n. An overflow of the exponential is
    reported by the finiteness check, as InputError, and warns nothing.

    The copy goes into the result's own row-major buffers, with room for
    the twins under duplication, and the steps of ``preprocess_in_place``
    run there; data is left as it is.
    """
    m, n = data.shape
    size = m * n * (2 if cfg.duplicate_columns else 1)
    values, mask = np.empty(size), np.empty(size, dtype=bool)
    values[:m * n].reshape(m, n)[...] = data.values
    mask[:m * n].reshape(m, n)[...] = data.mask
    return _clean(values, mask, m, n, cfg)


def preprocess_in_place(data: ObservedMatrix, cfg: PreprocessConfig) -> ObservedMatrix:
    """``preprocess`` on data's own arrays, which it overwrites.

    The result is a view of the leading part of data's buffers, so no copy
    of the matrix is made. Under duplication the result is twice as wide,
    so it is the one new array, and data is left as it is; so is a matrix
    whose arrays are not row-major and writeable, which ``preprocess``
    copies first.
    """
    values, mask = data.values, data.mask
    if cfg.duplicate_columns or not (values.flags.carray and mask.flags.carray):
        return preprocess(data, cfg)
    return _clean(values.reshape(-1), mask.reshape(-1), *data.shape, cfg)


def _clean(values: np.ndarray, mask: np.ndarray, m: int, n: int,
           cfg: PreprocessConfig) -> ObservedMatrix:
    """The pipeline's steps, in place on the row-major m x n matrix at the
    front of the flat buffers values and mask.

    The exponential and the cap run over every entry, unobserved ones
    included, which is safe because those are set back to zero at the end.
    Kept rows and columns are squeezed forward and twins spread backward
    within the buffers, which under duplication have room for the twins.
    """
    a, obs = values[:m * n].reshape(m, n), mask[:m * n].reshape(m, n)
    if cfg.undo_log:
        with np.errstate(over="ignore"):
            np.exp(a, out=a)
    if cfg.cap_value is not None:
        np.minimum(a, cfg.cap_value, out=a)
    # min and max meet any nan or infinity, without an M x N temporary
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise InputError("preprocessing produced non-finite values (undo_log overflow without a cap?)")

    keep_rows = obs.sum(axis=1) >= cfg.min_observed_per_vector
    col_counts = obs.sum(axis=0)
    if not keep_rows.all():
        col_counts -= obs[~keep_rows].sum(axis=0)
    col_origin = np.flatnonzero(col_counts >= cfg.min_observed_per_vector)
    if not keep_rows.any() or col_origin.size == 0:
        raise InputError(
            f"no rows or columns with at least {cfg.min_observed_per_vector} observed entries remain"
        )
    if col_origin.size < n or not keep_rows.all():
        rows = np.flatnonzero(keep_rows)
        a, obs = _squeeze(values, a, rows, col_origin), _squeeze(mask, obs, rows, col_origin)

    if cfg.standardize:
        for col in range(a.shape[1]):
            seen_at = obs[:, col]
            if not seen_at.any():
                continue
            seen = a[seen_at, col]
            sd = float(seen.std())
            if sd == 0.0:
                raise InputError(f"column {int(col_origin[col])} has zero observed variance")
            a[seen_at, col] = (seen - seen.mean()) / sd

    # zeroed through the inverted mask, which is then turned back, so no
    # M x N temporary is made
    np.logical_not(obs, out=obs)
    np.copyto(a, 0.0, where=obs)
    np.logical_not(obs, out=obs)

    if cfg.duplicate_columns:
        a, obs = _spread_twins(values, a), _spread_twins(mask, obs)
    return ObservedMatrix(values=a, mask=obs)


def _squeeze(buf: np.ndarray, arr: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Move arr[rows][:, cols] to the front of buf, the flat buffer that arr
    is the row-major front of, and return it there.

    A block of rows is gathered before it is written, and a kept row
    neither moves to a later row nor gets wider, so every write lands
    below the rows still to be read.
    """
    out = buf[:rows.size * cols.size].reshape(rows.size, cols.size)
    step = max(1, _BLOCK_BYTES // (buf.itemsize * cols.size))
    for lo in range(0, rows.size, step):
        out[lo:lo + step] = arr[np.ix_(rows[lo:lo + step], cols)]
    return out


def _spread_twins(buf: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Widen arr, the row-major front of the flat buffer buf, to [arr, arr]
    within buf, and return it.

    Blocks of rows go from the last one up, so every write lands above the
    rows still to be read; numpy copies a block through a buffer of its
    own where its source and target overlap.
    """
    m, n = arr.shape
    out = buf[:m * 2 * n].reshape(m, 2 * n)
    step = max(1, _BLOCK_BYTES // (buf.itemsize * n))
    for hi in range(m, 0, -step):
        lo = max(0, hi - step)
        out[lo:hi, :n] = arr[lo:hi]
        out[lo:hi, n:] = out[lo:hi, :n]
    return out


def save_result(out_dir, c: np.ndarray, w: np.ndarray, metadata: dict) -> None:
    """Write C.csv, W.csv and metadata.json into out_dir (created if needed)."""
    out = Path(out_dir)
    save_matrix(out / "C.csv", ObservedMatrix.fully_observed(c))
    save_matrix(out / "W.csv", ObservedMatrix.fully_observed(w))
    write_json(out / "metadata.json", metadata)


def write_trace_csv(path, trace: GibbsTrace) -> None:
    """Per-iteration series as CSV: losses, noise variance, probe chains."""
    probe_keys = sorted(trace.y_entry_chains)
    columns = [trace.mse_per_iter, trace.mse_observed_per_iter, trace.sigma2_chain]
    columns += [trace.y_entry_chains[key] for key in probe_keys]
    header = _TRACE_BASE + [f"y_r{k}_c{l}" for k, l in probe_keys]
    rows = zip(range(1, trace.mse_per_iter.size + 1), *(col.tolist() for col in columns))
    write_csv(path, [header, *rows])


def read_trace_csv(path) -> GibbsTrace:
    """Read back the GibbsTrace that write_trace_csv wrote.

    The file does not record swaps, so ``accepted_swaps`` is None.
    """
    rows = _csv_rows(path)
    header = next(rows, (None, None))[1]
    if header is None:
        raise ParseError("empty trace file", line=1)
    if header[: len(_TRACE_BASE)] != _TRACE_BASE:
        raise ParseError(f"unexpected trace header {header[:4]!r}", line=1)
    probes = []
    for name in header[len(_TRACE_BASE) :]:
        m = name.removeprefix("y_r").split("_c")
        if len(m) != 2 or not all(p.isdigit() for p in m) or not name.startswith("y_r"):
            raise ParseError(f"unexpected probe column {name!r}", line=1)
        probes.append((int(m[0]), int(m[1])))
    # the header set the rows' width, so a data row of another width is refused at its line
    # each data row's line, noted as it is read, locates an empty field
    lines = []
    data = _csv_matrix(lines.append(line_no) or (line_no, row) for line_no, row in rows)
    if not data.mask.all():
        row, col = np.argwhere(~data.mask)[0]
        raise ParseError("empty field in a trace", line=lines[row], column=int(col) + 1)
    arr = data.values
    return GibbsTrace(
        mse_per_iter=arr[:, 1],
        mse_observed_per_iter=arr[:, 2],
        sigma2_chain=arr[:, 3],
        y_entry_chains={pos: arr[:, 4 + p] for p, pos in enumerate(probes)},
        accepted_swaps=None,
    )
