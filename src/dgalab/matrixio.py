"""Plain-text files: failing-case matrices and CSV tables.

Matrix format, one matrix per file::

    MAT 1
    <rows> <cols>
    <row of cols space-separated floats, 17 significant digits>
    ...

numpy.savetxt writes it and numpy.loadtxt(path, skiprows=2, ndmin=2)
reads it back; a NaN or infinite entry is written as nan, inf or -inf.

CSV format: a mandatory header row, comma separators, '.' decimal point,
floats with 17 significant digits, true/false booleans, Unix newlines.

Seventeen significant digits uniquely identify every double, so a
written value reads back bit-exact.
"""

from __future__ import annotations

import os

import numpy as np


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write the CSV, creating its directory first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def dump_case(out_dir, named_matrices) -> list:
    """Write each (name, matrix) pair as <name>.mat under out_dir; a
    vector becomes one row."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, mat in named_matrices:
        path = os.path.join(out_dir, f"{name}.mat")
        mat = np.atleast_2d(mat)
        np.savetxt(path, mat, fmt="%.17g", header=f"MAT 1\n{mat.shape[0]} {mat.shape[1]}",
                   comments="")
        paths.append(path)
    return paths
