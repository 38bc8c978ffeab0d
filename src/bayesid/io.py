"""Matrix file formats, preprocessing, and result output.

Two on-disk formats are supported. CSV holds a dense matrix, one row per
line, where an empty field marks an unobserved entry. MatrixMarket
coordinate files list observed entries with 1-based indices; everything
not listed is unobserved. Floats are written with 17 significant digits,
so a save/load round trip is exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError, ParseError
from .model import ObservedMatrix

FORMAT_CSV = "csv"
FORMAT_MATRIX_MARKET = "matrix_market"

_FLOAT_FMT = "%.17g"


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
    raise ParseError carrying the 1-based line (and field) location.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    if _detect_format(path, fmt) == FORMAT_CSV:
        return _load_csv(path, has_header)
    return _load_matrix_market(path)


def _load_csv(path: Path, has_header: bool) -> ObservedMatrix:
    rows: list[list[float]] = []
    mask_rows: list[list[bool]] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if has_header and line_no == 1:
                continue
            if width is None:
                width = len(row)
                if width == 0:
                    raise ParseError("empty row", line=line_no)
            elif len(row) != width:
                raise ParseError(f"expected {width} fields, found {len(row)}", line=line_no)
            vals, obs = [], []
            for col_no, field in enumerate(row, start=1):
                field = field.strip()
                if field == "":
                    vals.append(0.0)
                    obs.append(False)
                    continue
                try:
                    v = float(field)
                except ValueError:
                    raise ParseError(f"not a number: {field!r}", line=line_no, column=col_no) from None
                if not math.isfinite(v):
                    raise ParseError(f"non-finite value {field!r}", line=line_no, column=col_no)
                vals.append(v)
                obs.append(True)
            rows.append(vals)
            mask_rows.append(obs)
    if not rows:
        raise ParseError("file contains no data rows", line=1)
    return ObservedMatrix(values=np.array(rows, dtype=float), mask=np.array(mask_rows, dtype=bool))


def _load_matrix_market(path: Path) -> ObservedMatrix:
    with open(path) as fh:
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for vals, obs in zip(data.values, data.mask):
                writer.writerow([_FLOAT_FMT % v if o else "" for v, o in zip(vals, obs)])
    else:
        m, n = data.shape
        rows, cols = np.nonzero(data.mask)
        with open(path, "w") as fh:
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
    """Apply the configured cleaning pipeline and return the new matrix.

    Rows are dropped before columns (one pass each). Standardization works
    per column over its observed entries only; a column whose observed
    entries have zero variance stops the run with an error naming it.
    Unobserved entries stay stored as zero throughout. Duplication appends
    a full copy, so column n + N is the twin of column n.
    """
    values = data.values.copy()
    mask = data.mask.copy()

    if cfg.undo_log:
        values[mask] = np.exp(values[mask])
    if cfg.cap_value is not None:
        values[mask] = np.minimum(values[mask], cfg.cap_value)
    if not np.all(np.isfinite(values[mask])):
        raise InputError("preprocessing produced non-finite values (undo_log overflow without a cap?)")

    keep_rows = mask.sum(axis=1) >= cfg.min_observed_per_vector
    values, mask = values[keep_rows], mask[keep_rows]
    col_origin = np.flatnonzero(mask.sum(axis=0) >= cfg.min_observed_per_vector)
    values, mask = values[:, col_origin], mask[:, col_origin]
    if values.shape[0] == 0 or values.shape[1] == 0:
        raise InputError(
            f"no rows or columns with at least {cfg.min_observed_per_vector} observed entries remain"
        )

    if cfg.standardize:
        for col in range(values.shape[1]):
            obs = mask[:, col]
            seen = values[obs, col]
            sd = float(seen.std())
            if sd == 0.0:
                raise InputError(f"column {int(col_origin[col])} has zero observed variance")
            values[obs, col] = (seen - seen.mean()) / sd

    values[~mask] = 0.0

    if cfg.duplicate_columns:
        values = np.concatenate([values, values], axis=1)
        mask = np.concatenate([mask, mask], axis=1)

    return ObservedMatrix(values=values, mask=mask)


def save_result(out_dir, c: np.ndarray, w: np.ndarray, metadata: dict) -> None:
    """Write C.csv, W.csv and metadata.json into out_dir (created if needed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "C.csv", ObservedMatrix.fully_observed(c))
    save_matrix(out / "W.csv", ObservedMatrix.fully_observed(w))
    with open(out / "metadata.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(path, trace) -> None:
    """Per-iteration series as CSV: losses, noise variance, probe chains."""
    headers = ["iteration", "mse", "mse_observed", "sigma2"]
    probe_keys = sorted(trace.y_entry_chains)
    headers += [f"y_r{k}_c{l}" for k, l in probe_keys]
    chains = [trace.y_entry_chains[key] for key in probe_keys]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for t in range(trace.mse_per_iter.size):
            row = [
                str(t + 1),
                _FLOAT_FMT % trace.mse_per_iter[t],
                _FLOAT_FMT % trace.mse_observed_per_iter[t],
                _FLOAT_FMT % trace.sigma2_chain[t],
            ]
            row += [_FLOAT_FMT % chain[t] for chain in chains]
            writer.writerow(row)


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into arrays.

    Returns a dict with keys "iteration", "mse", "mse_observed", "sigma2",
    and "probes" (a mapping of (row, col) to chain arrays).
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty trace file", line=1) from None
        base = ["iteration", "mse", "mse_observed", "sigma2"]
        if header[: len(base)] != base:
            raise ParseError(f"unexpected trace header {header[:4]!r}", line=1)
        probes = []
        for name in header[len(base) :]:
            m = name.removeprefix("y_r").split("_c")
            if len(m) != 2 or not all(p.isdigit() for p in m) or not name.startswith("y_r"):
                raise ParseError(f"unexpected probe column {name!r}", line=1)
            probes.append((int(m[0]), int(m[1])))
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, found {len(row)}", line=line_no)
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ParseError(f"bad trace row {row!r}", line=line_no) from None
    if not rows:
        raise ParseError("trace file has no data rows", line=1)
    arr = np.array(rows)
    out = {
        "iteration": arr[:, 0].astype(int),
        "mse": arr[:, 1],
        "mse_observed": arr[:, 2],
        "sigma2": arr[:, 3],
        "probes": {pos: arr[:, 4 + p] for p, pos in enumerate(probes)},
    }
    return out
