"""Exception types shared across the package, and its two argument rules:
`check_count` for every integer count and `check_finite` for every float argument."""

import numpy as np


class InvalidInputError(ValueError):
    """Input violates a documented precondition (non-finite, wrong shape, ...)."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its sweep/iteration budget."""


class StepTooLargeError(RuntimeError):
    """Gradient step diverged (objective grew by 10 orders of magnitude)."""


def check_count(value, name: str, least: int) -> int:
    """value as a Python int; InvalidInputError unless it is a Python or numpy integer >= least."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise InvalidInputError(f"{name} must be at least {least} and an integer, not {value!r}")
    return int(value)


def check_finite(value, name: str) -> np.ndarray:
    """value as a float64 array; InvalidInputError if any entry is NaN or infinite."""
    arr = np.asarray(value, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite")
    return arr
