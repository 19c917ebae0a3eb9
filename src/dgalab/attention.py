"""Exact causal self-attention.

This is the correctness oracle for the grouped pipeline and the weight
source for sparsity studies. Future positions get a logit of -inf, never
a large finite sentinel, so their weight is exactly zero and future
tokens have no influence.

`causal_attention` and the importance scorer in `dga` share one kernel,
`_causal_tile`: 128 sorted query rows, logits only up to the last row's
position, -inf only on the diagonal band. The weight matrix starts as
zeros, and nothing above its diagonal is ever written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySequenceError, InvalidInputError

_ROW_BLOCK = 128  # query rows per causal tile: memory O(B L)


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
        if q.ndim != 2 or q.shape[1] == 0:
            raise InvalidInputError("Q must be 2-D with width d >= 1")
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


def _causal_tile(batch: AttentionBatch, rows: np.ndarray, out=None) -> tuple:
    """(e, row sums), e = exp(logit - row max) of sorted query rows over
    K[:rows[-1] + 1], zero past each row, written into out if given. Every
    row sees the columns up to rows[0], so only the band after it is masked."""
    end = rows[-1] + 1
    e = np.matmul(batch.q[rows], batch.k[:end].T, out=out)
    e *= 1.0 / np.sqrt(batch.width)
    e[:, rows[0] + 1 :][np.arange(rows[0] + 1, end) > rows[:, None]] = -np.inf
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    return e, e.sum(axis=1)


def causal_attention(batch: AttentionBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-token attention output and the full causal weight matrix.

    Returns (out, weights): out[i] = sum_{j<=i} weights[i, j] * V[j] with
    weights[i, :i+1] the softmax of Q_i . K_j / sqrt(d) over past positions
    and exact zeros elsewhere. Tiles of _ROW_BLOCK rows are written into
    weights[rows, :end], which starts as zeros, and normalized in place.
    """
    L = batch.length
    out, weights = np.empty_like(batch.q), np.zeros((L, L))
    for start in range(0, L, _ROW_BLOCK):
        end = min(start + _ROW_BLOCK, L)
        tile, sums = _causal_tile(batch, np.arange(start, end), out=weights[start:end, :end])
        tile /= sums[:, None]
        out[start:end] = tile @ batch.v[:end]
    return out, weights
