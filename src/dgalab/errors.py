"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition (non-finite, wrong shape, ...)."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its sweep/iteration budget."""


class StepTooLargeError(RuntimeError):
    """Gradient step diverged (objective grew by 10 orders of magnitude)."""
