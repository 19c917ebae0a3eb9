"""Plain-text files: matrices (written and read back) and CSV tables.

Matrix format, one matrix per file::

    MAT 1
    <rows> <cols>
    <row of cols space-separated floats, 17 significant digits>
    ...

CSV format: a mandatory header row, comma separators, '.' decimal point,
floats with 17 significant digits, true/false booleans, Unix newlines.

Seventeen significant digits uniquely identify every finite double, so
write -> read -> write is byte-stable and read -> write -> read is
bit-exact.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidInputError

_HEADER = "MAT 1"


def format_float(x: float) -> str:
    """Shortest 17-significant-digit decimal form of a double."""
    return f"{x:.17g}"


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write the CSV, creating its directory first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def matrix_to_text(mat) -> str:
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInputError("matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("matrix contains non-finite entries")
    lines = [_HEADER, f"{arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def text_to_matrix(text: str) -> np.ndarray:
    lines = text.rstrip().splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise InvalidInputError(f"missing '{_HEADER}' header line")
    try:
        rows, cols = (int(tok) for tok in lines[1].split())
    except (IndexError, ValueError) as exc:
        raise InvalidInputError("malformed dimension line") from exc
    if rows <= 0 or cols <= 0:
        raise InvalidInputError("dimensions must be positive")
    if len(lines) != 2 + rows:
        raise InvalidInputError(f"expected {rows} data rows, found {len(lines) - 2}")
    out = np.empty((rows, cols), dtype=np.float64)
    for i in range(rows):
        toks = lines[2 + i].split()
        if len(toks) != cols:
            raise InvalidInputError(f"row {i} has {len(toks)} entries, expected {cols}")
        out[i] = [float(t) for t in toks]
    if not np.all(np.isfinite(out)):
        raise InvalidInputError("matrix contains non-finite entries")
    return out


def write_matrix(path, mat) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(matrix_to_text(mat))


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return text_to_matrix(fh.read())


def dump_case(out_dir, named_matrices) -> list:
    """Write each (name, matrix) pair as <name>.mat under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, mat in named_matrices:
        path = os.path.join(out_dir, f"{name}.mat")
        write_matrix(path, mat)
        paths.append(path)
    return paths
