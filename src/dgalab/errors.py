"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition (non-finite, wrong shape, ...)."""


class InvalidRateError(InvalidInputError):
    """Sparse rate outside the admissible interval (1/L, 1]."""


class InvalidSpecError(InvalidInputError):
    """Score-sampling spec requests more rows than the sequence has."""


class EmptySequenceError(InvalidInputError):
    """Attention requested on a zero-length sequence."""


class IndivisibleError(InvalidInputError):
    """Group size does not divide the number of tokens to be grouped."""


class DegenerateSpectrumError(ValueError):
    """No eigenvalue survives the positive-spectrum cutoff."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its sweep/iteration budget."""


class StepTooLargeError(RuntimeError):
    """Gradient step diverged (objective grew by 10 orders of magnitude)."""
