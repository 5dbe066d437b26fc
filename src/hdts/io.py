"""File formats: panel/matrix CSV, the HDTS1 binary container, JSON
sidecars and run manifests.

HDTS1 layout: 5 magic bytes ``HDTS1``, then two little-endian uint64
(rows, cols), then rows*cols little-endian float64 in row-major order.
Every CSV file is built by one formatter, ``_csv_text``, from columns:
a list with one cell per row, or one value repeated on every row.  Each
column gets one field of a per-row line template, chosen by the types of
its cells: ``{:.17g}`` (%.17g) when every cell is a float, so that
round-trips and reruns are byte-identical, ``{}`` (the same as ``str``)
when none is; a column that mixes the two is formatted cell by cell the
same way, and a repeated value is formatted once.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .util import sha256_file

MAGIC = b"HDTS1"


def _cell(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _csv_text(header, columns) -> str:
    """CSV text, lines ending in \\n: the header unless it is None, then one
    line per row, built by one str.format template.

    A column is a list (one cell per row) or any other value, which repeats
    on every row and is formatted once into the template; at least one
    column must be a list, and all lists have the same length.
    """
    fields, lists = [], []
    for col in columns:
        if not isinstance(col, list):
            fields.append(_cell(col).replace("{", "{{").replace("}", "}}"))
            continue
        floats = {issubclass(t, float) for t in set(map(type, col))}
        if floats == {True}:
            fields.append("{:.17g}")
        else:
            fields.append("{}")
            if True in floats:
                col = [_cell(v) for v in col]
        lists.append(col)
    if len({len(col) for col in lists}) != 1:
        raise ValueError("CSV columns need one common length")
    head = "" if header is None else ",".join(header) + "\n"
    return head + "".join(map((",".join(fields) + "\n").format, *lists))


# ---------------------------------------------------------------------------
# Binary container
# ---------------------------------------------------------------------------

def write_array_binary(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
    if arr.ndim != 2:
        raise ValidationError(f"binary container holds 2-d arrays, got shape {arr.shape}")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        f.write(arr.tobytes(order="C"))


def read_array_binary(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(5)
        if magic != MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = f.read(16)
        if len(header) != 16:
            raise ValidationError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", header)
        payload = f.read()
    if len(payload) < rows * cols * 8:
        raise ValidationError(f"{path}: truncated payload")
    if len(payload) > rows * cols * 8:
        raise ValidationError(
            f"{path}: {len(payload) - rows * cols * 8} trailing bytes after "
            f"the {rows}x{cols} payload")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(float)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

_BLOCK_CELLS = 1 << 16   # cells formatted per write by _write_array_csv


def _write_array_csv(path, arr: np.ndarray, header=None) -> None:
    """CSV of a 2-d float array, formatted a block of rows at a time so that
    memory stays one block of cells whatever the size; with a header, a
    first column t counts the rows from 1."""
    arr = np.asarray(arr, dtype=float)
    step = max(1, _BLOCK_CELLS // max(1, arr.shape[1]))
    with open(path, "w", newline="") as f:
        if header is not None:
            f.write(",".join(header) + "\n")
        for start in range(0, arr.shape[0], step):
            block = arr[start:start + step]
            columns = block.T.tolist()
            if header is not None:
                columns.insert(0, list(range(start + 1, start + 1 + block.shape[0])))
            f.write(_csv_text(None, columns))


def write_panel_csv(path, data: np.ndarray) -> None:
    """Header t,x1..xp; t counts observations from 1."""
    header = ["t"] + [f"x{j + 1}" for j in range(np.shape(data)[1])]
    _write_array_csv(path, data, header)


def _parse_rows(path, lines, first_line: int, skip: int,
                width: int | None = None) -> np.ndarray:
    """Numeric rows of CSV lines, dropping `skip` leading cells per row.

    Blank lines are ignored; a row of the wrong width or a non-numeric
    cell raises ValidationError naming the file and line.  The result is
    2-d, (0, width) when there are no rows.
    """
    rows = []
    for lineno, line in enumerate(lines, start=first_line):
        if not line.strip():
            continue
        cells = line.strip().split(",")[skip:]
        width = len(cells) if width is None else width
        if len(cells) != width:
            raise ValidationError(
                f"{path}, line {lineno}: expected {width} values, got {len(cells)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError:
            raise ValidationError(
                f"{path}, line {lineno}: non-numeric value in {line.strip()!r}") from None
    return np.array(rows, dtype=float).reshape(len(rows), width or 0)


def read_panel_csv(path) -> np.ndarray:
    with open(path) as f:
        header = f.readline().strip().split(",")
        if not header or header[0] != "t":
            raise ValidationError(f"{path}: expected a panel CSV with header t,x1..xp")
        return _parse_rows(path, f, 2, 1, len(header) - 1)


def write_matrix_csv(path, arr: np.ndarray) -> None:
    _write_array_csv(path, arr)


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as f:
        return _parse_rows(path, f, 1, 0)


def read_panel_any(path) -> np.ndarray:
    """Panel from either container, detected by the magic bytes."""
    with open(path, "rb") as f:
        head = f.read(5)
    return read_array_binary(path) if head == MAGIC else read_panel_csv(path)


def rows_to_columns(rows: list[dict]) -> dict:
    """Columns of dict rows, keyed and ordered by the first row's keys."""
    if not rows:
        raise ValidationError("no rows to write")
    return {c: [row[c] for row in rows] for c in rows[0]}


def rows_csv_text(rows: list[dict]) -> str:
    """CSV text of dict rows under a header of the first row's keys."""
    columns = rows_to_columns(rows)
    return _csv_text(columns, columns.values())


def write_rows_csv(path, columns: dict) -> None:
    """CSV of named columns (see _csv_text) under a header of their names."""
    text = _csv_text(columns, columns.values())
    with open(path, "w", newline="") as f:
        f.write(text)


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Provenance record for one CLI invocation.

    Output digests (not the manifest itself, whose timestamp varies) are
    the reproducibility contract: reruns with the same config and seed
    produce identical output digests.
    """

    tool_version: str
    command: str
    base_seed: int
    threads: int
    config_digest: str | None = None
    outputs: dict = field(default_factory=dict)
    created_utc: str = ""

    def add_output(self, path) -> None:
        self.outputs[Path(path).name] = sha256_file(path)

    def write(self, path) -> None:
        self.created_utc = datetime.now(timezone.utc).isoformat()
        write_json(path, asdict(self))
