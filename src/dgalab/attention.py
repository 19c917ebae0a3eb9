"""Exact causal self-attention.

This is the correctness oracle for the grouped pipeline and the weight
source for sparsity studies. Future positions get a logit of -inf, never
a large finite sentinel, so their weight is exactly zero and future
tokens have no influence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySequenceError, InvalidInputError
from .numerics import softmax


@dataclass(frozen=True)
class AttentionBatch:
    """Query/key/value matrices for one sequence, each L x d."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        k = np.asarray(self.k, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if q.ndim != 2:
            raise InvalidInputError("Q must be 2-D")
        if q.shape[0] == 0:
            raise EmptySequenceError("sequence length is zero")
        if k.shape != q.shape or v.shape != q.shape:
            raise InvalidInputError("Q, K, V must share one (L, d) shape")
        for name, mat in (("Q", q), ("K", k), ("V", v)):
            if not np.all(np.isfinite(mat)):
                raise InvalidInputError(f"{name} contains non-finite entries")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "v", v)

    @property
    def length(self) -> int:
        return self.q.shape[0]

    @property
    def width(self) -> int:
        return self.q.shape[1]


def causal_attention(batch: AttentionBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-token attention output and the full causal weight matrix.

    Returns (out, weights): out[i] = sum_{j<=i} weights[i, j] * V[j] with
    weights[i, :i+1] the softmax of Q_i . K_j / sqrt(d) over past positions
    and exact zeros elsewhere.
    """
    L, d = batch.q.shape
    weights = batch.q @ batch.k.T
    weights *= 1.0 / np.sqrt(d)
    weights[np.triu(np.ones((L, L), dtype=bool), k=1)] = -np.inf
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights @ batch.v, weights


def last_token_weights(batch: AttentionBatch) -> np.ndarray:
    """Attention weights of the final token over the whole sequence."""
    scale = 1.0 / np.sqrt(batch.width)
    return softmax((batch.k @ batch.q[-1]) * scale)
