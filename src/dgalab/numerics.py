"""Dense numerical kernels: stable softmax, simplex projection, symmetric
eigenvalues and positive-spectrum condition numbers.

Matrices are plain float64 numpy arrays in row-major order; probability
vectors are 1-D float64 arrays that sum to one.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

PROB_ATOL = 1e-12


def _as_finite_vector(v, name: str = "input") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def check_prob_vector(p) -> np.ndarray:
    """Validate a weight vector alpha: nonnegative, unit sum (within 1e-12)."""
    arr = _as_finite_vector(p, "alpha")
    if np.any(arr < 0):
        raise InvalidInputError("alpha has negative entries")
    if abs(arr.sum() - 1.0) > PROB_ATOL:
        raise InvalidInputError(f"alpha does not sum to 1 (got {arr.sum()!r})")
    return arr


def softmax(v) -> np.ndarray:
    """Max-shifted softmax; safe for arbitrarily large finite inputs."""
    return softmax_rows(_as_finite_vector(v))


def softmax_rows(mat: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis."""
    e = np.exp(mat - mat.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto the closed probability simplex.

    Sort-based algorithm: find the largest support whose shifted entries
    stay positive, then clip. Idempotent and non-expansive.
    """
    arr = _as_finite_vector(v)
    u = np.sort(arr)[::-1]
    css = (np.cumsum(u) - 1.0) / np.arange(1, arr.size + 1)
    k = np.nonzero(u > css)[0][-1]
    return np.clip(arr - css[k], 0.0, None)


def sym_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, sorted descending.

    Rejects non-square, empty, non-finite and asymmetric (beyond
    1e-10 * max|a|) input, then runs LAPACK's symmetric solver on the
    symmetrized matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidInputError("matrix must be square and nonempty")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (a + a.T))[::-1]


def condition_number(eigs) -> float:
    """lambda_max / lambda_min over eigenvalues above 1e-10 * lambda_max.

    Eigenvalues at or below the relative cutoff are treated as zero modes
    and excluded; a single surviving eigenvalue yields 1.
    """
    arr = np.asarray(eigs, dtype=np.float64)
    if arr.size == 0:
        raise InvalidInputError("empty spectrum")
    if np.any(np.diff(arr) > 0):
        raise InvalidInputError("eigenvalues must be sorted descending")
    top = arr[0]
    kept = arr[arr > 1e-10 * top]
    if kept.size == 0:
        raise InvalidInputError("no eigenvalue above the cutoff")
    return float(kept[0] / kept[-1])

