"""Exact causal self-attention, and the tile kernel all attention shares.

This is the correctness oracle for the grouped pipeline and the weight
source for sparsity studies. Hidden positions get a logit of -inf, never
a large finite sentinel, so their weight is exactly zero.

One rule, `_visible`, decides what a query sees: column c is visible to
row i iff since[c] <= i < until[c]; a key of exact attention is
[its position, L). `_tile` lays queries' logits over several key blocks
side by side, batched over leading axes, hides only its trailing band by
that rule when given the rows' positions, and exponentiates after a max
shift. `causal_attention` runs it on 128-row tiles over K[:last row + 1],
so the weight matrix starts as zeros and nothing above its diagonal is
ever written. `dga` scores, pools its block aggregates and attends
through it, and `decode` attends and regroups through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

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
            raise InvalidInputError("sequence length is zero")
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


def _visible(rows: np.ndarray, since, until) -> np.ndarray:
    """Row i sees column c iff since[c] <= i < until[c]. since and until
    are one vector shared by every row, one row per query, or a scalar."""
    i = rows[:, None]
    return (since <= i) & (i < until)


def _tile(q: np.ndarray, blocks, rows=None, since=None, until=None, out=None) -> tuple:
    """(e, row sums), e = exp(logit - row max) of queries q (..., n, d) over
    the key blocks (..., len, d) laid side by side on the last axis, written
    into out if given; leading axes batch. Given the sorted rows' positions,
    the trailing since.size columns are hidden by _visible; every row sees
    the columns before them."""
    if out is None:
        out = np.empty(q.shape[:-1] + (sum(block.shape[-2] for block in blocks),))
    col = 0
    for block in blocks:
        width = block.shape[-2]
        np.matmul(q, block.swapaxes(-1, -2), out=out[..., col : col + width])
        col += width
    out *= 1.0 / math.sqrt(q.shape[-1])
    if rows is not None:
        np.copyto(out[..., col - since.size :], -np.inf, where=~_visible(rows, since, until))
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    return out, out.sum(axis=-1)


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
        rows = np.arange(start, end)
        tile, sums = _tile(batch.q[start:end], [batch.k[:end]], rows, rows[1:], end,
                           out=weights[start:end, :end])
        tile /= sums[:, None]
        out[start:end] = tile @ batch.v[:end]
    return out, weights
