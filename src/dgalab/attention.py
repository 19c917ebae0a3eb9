"""Exact causal self-attention, and the tile kernel all attention shares.

This is the correctness oracle for the grouped pipeline. Hidden positions
get a logit of -inf, never a large finite sentinel, so their weight is
exactly zero.

One rule, `_visible`, decides what a query sees: column c is visible to row i
iff since[c] <= i < until[c]; a key of exact attention is [its position, L).
`_tile` lays queries' logits over several key blocks side by side in the
buffer its caller passes, batched over leading axes, scaling the queries (not
the wider logits) by 1/sqrt(d), hides only its trailing band by that rule when
given the rows' positions, and exponentiates by `numerics.exp_rows`.
`_causal_tiles` is the one causal tile loop: it runs `_tile` on 128-row tiles
of sorted query positions over K[:last row + 1], whose logits `_causal_logits`
counts for it and for `decode.prefill`. `_run_shares` runs its tiles, and
`dga`'s grouped attend's, costliest first off one queue that a thread per CPU
pops, each thread with one scratch buffer, in which every tile is computed.
`causal_attention` divides its tiles into a zeroed weight matrix (resident in
full where numpy gets it huge pages); `dga`'s scorer sums them instead.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_finite
from .numerics import exp_rows

_ROW_BLOCK = 128  # query rows per causal tile: memory O(B L)
_SHARE_LOGITS = 1 << 17  # fewest logits per share: L = 512 exact, 1024 grouped ran slower split


@dataclass(frozen=True)
class AttentionBatch:
    """Query/key/value matrices for one sequence, each L x d."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q, k, v = check_finite(self.q, "Q"), check_finite(self.k, "K"), check_finite(self.v, "V")
        if q.ndim != 2 or q.shape[1] == 0:
            raise InvalidInputError("Q must be 2-D with width d >= 1")
        if q.shape[0] == 0:
            raise InvalidInputError("sequence length is zero")
        if k.shape != q.shape or v.shape != q.shape:
            raise InvalidInputError("Q, K, V must share one (L, d) shape")
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


def _tile(q: np.ndarray, blocks, rows=None, since=None, until=None, *, out) -> tuple:
    """(out, row sums): exp_rows of the logits of queries q (..., n, d) over key
    blocks (..., len, d) laid side by side on out's last axis; leading axes batch.
    q is scaled by 1/sqrt(d) before the products, bit for bit the scaled logits
    when sqrt(d) is a power of two. Given the sorted rows' positions, _visible
    hides the trailing since.size columns; every row sees the columns before them."""
    q = q * (1.0 / math.sqrt(q.shape[-1]))
    col = 0
    for block in blocks:
        width = block.shape[-2]
        np.matmul(q, block.swapaxes(-1, -2), out=out[..., col : col + width])
        col += width
    if rows is not None:
        np.copyto(out[..., col - since.size :], -np.inf, where=~_visible(rows, since, until))
    return out, exp_rows(out, out)


def _run_shares(logits: np.ndarray, run_tile) -> None:
    """run_tile(t, buf) on each tile t, buf being logits[t] floats of its thread's
    one scratch buffer. The calling thread and a pool closed on return, one thread
    per CPU but at most one per tile and per _SHARE_LOGITS logits, each pop the
    costliest tile left from one queue, which a tile that raises empties. numpy
    drops the interpreter lock in a tile, so run_tile must write only its own tile."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cpus or 1, logits.size, int(logits.sum()) // _SHARE_LOGITS))
    queue = deque(np.argsort(-logits, kind="stable").tolist())

    def run_queue():
        buf = np.empty(logits.max())
        while True:
            try:
                t = queue.popleft()
            except IndexError:
                return
            try:
                run_tile(t, buf[: logits[t]])
            except BaseException:
                queue.clear()  # no thread starts another tile
                raise

    if workers == 1:
        return run_queue()
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(run_queue) for _ in range(workers - 1)]
        run_queue()
        for worker in rest:
            worker.result()  # re-raises a worker's exception


def _causal_logits(positions: np.ndarray) -> np.ndarray:
    """Entries of causal tile t, rows positions[t * _ROW_BLOCK : (t + 1) *
    _ROW_BLOCK] over K[:its last row + 1], masked band included."""
    stops = np.append(np.arange(_ROW_BLOCK, positions.size, _ROW_BLOCK), positions.size)
    return np.diff(stops, prepend=0) * (positions[stops - 1] + 1)


def _causal_tiles(batch: AttentionBatch, positions: np.ndarray, visit) -> list:
    """[visit(rows, e, sums)] in tile order over the _causal_logits tiles, band
    hidden by _tile, e in the buf _run_shares hands the tile."""
    logits = _causal_logits(positions)
    parts = [None] * logits.size

    def run_tile(t, buf):
        rows = positions[t * _ROW_BLOCK : (t + 1) * _ROW_BLOCK]
        end = rows[-1] + 1
        e, sums = _tile(batch.q[rows], [batch.k[:end]], rows, np.arange(rows[0] + 1, end), end,
                        out=buf.reshape(rows.size, end))
        parts[t] = visit(rows, e, sums)

    _run_shares(logits, run_tile)
    return parts


def causal_attention(batch: AttentionBatch) -> tuple[np.ndarray, np.ndarray]:
    """Per-token attention output and the full causal weight matrix.

    Returns (out, weights): out[i] = sum_{j<=i} weights[i, j] * V[j] with
    weights[i, :i+1] the softmax of Q_i . K_j / sqrt(d) over past positions
    and exact zeros elsewhere. Each causal tile is divided by its row sums from
    its thread's scratch into its rows of weights, which starts as zeros.
    """
    out, weights = np.empty_like(batch.q), np.zeros((batch.length, batch.length))

    def visit(rows, e, sums):
        start, end = rows[0], rows[-1] + 1
        w = np.divide(e, sums[:, None], out=weights[start:end, :end])
        out[start:end] = w @ batch.v[:end]

    _causal_tiles(batch, np.arange(batch.length), visit)
    return out, weights
