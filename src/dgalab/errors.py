"""Exception types shared across the package, and `check_count`, the one
check every integer count argument of the library goes through."""

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
