"""Deterministic CSV output: comma separators, '.' decimal point,
17-significant-digit floats, Unix newlines, mandatory header row."""

from __future__ import annotations

import os

import numpy as np

from .matrixio import format_float


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
