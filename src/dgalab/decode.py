"""Autoregressive decoding with incremental block aggregation.

The whole cache is one growable (2, capacity, d) buffer of key and value
rows, [focal | aggregated blocks | pending tail], seeded by prefill from
the grouped attention layout. Each decode step writes the new token at
the end of the tail and attends over the live rows -- everything cached
is in the past, so no mask is needed. Once the tail reaches
m' = ceil(1.1 m) rows, the oldest m of them collapse in place into one
new aggregated row, weighted by the current query's softmax over those m
keys; both softmaxes run on `attention._tile`, as the prefill aggregates
and the grouped attend do.
The ledger compares the cache and its dot product count against vanilla
full attention; `decode-bench` writes the per-step trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import _ROW_BLOCK, AttentionBatch, _tile
from .dga import _attend, build_grouped_kv, compute_partition
from .errors import InvalidInputError


def regroup_threshold(m: int) -> int:
    """Tail length that triggers aggregation: ceil(1.1 m)."""
    return int(np.ceil(1.1 * m - 1e-9))


@dataclass
class ComplexityLedger:
    """Exact operation and storage counts for one attention configuration."""

    per_token_columns: int
    cache_entries: int
    score_dot_products: int


@dataclass(slots=True)
class DecoderState:
    """Single-owner mutable cache for one decode session.

    cache is one (2, capacity, d) buffer, keys in cache[0] and values in
    cache[1], laid out as build_grouped_kv lays out its rows plus the
    tail: [focal | aggregated blocks | tail]. Rows [0, rows) are live;
    the capacity doubles when a new token finds the buffer full. dots
    counts prefill's (scoring included) and every decode step's dot products.
    """

    d: int
    m: int
    cache: np.ndarray
    focal_rows: int = 0
    group_rows: int = 0
    rows: int = 0
    generated: int = 0
    prefill_tokens: int = 0
    dots: int = 0

    @property
    def tail_rows(self) -> int:
        return self.rows - self.focal_rows - self.group_rows

    @property
    def total_tokens(self) -> int:
        return self.prefill_tokens + self.generated


def prefill(batch: AttentionBatch, m: int, gamma: float) -> tuple[np.ndarray, DecoderState]:
    """Run grouped attention over the prompt and seed the decode cache.

    Every prompt token lands in exactly one cache row: focal rows stay
    individual, non-focal rows are already aggregated into their blocks
    (the divisibility promotion leaves no ungrouped remainder), so the
    tail starts empty.
    """
    partition = compute_partition(batch, m, gamma)
    kv = build_grouped_kv(batch, partition)
    outputs = _attend(batch, partition, kv)
    L, r, k = batch.length, partition.r, partition.k
    # Exact scoring (none at gamma = 1) computes whole causal tiles; each aggregate pools m.
    ends = np.minimum(np.arange(_ROW_BLOCK, L + _ROW_BLOCK, _ROW_BLOCK), L)
    scoring = int(ends @ np.diff(ends, prepend=0)) if gamma < 1.0 else 0
    state = DecoderState(
        batch.width, m, kv, focal_rows=r, group_rows=k, rows=r + k,
        prefill_tokens=L, dots=L * (r + k + (m if k > 0 else 0)) + k * m + scoring,
    )
    return outputs, state


def decode_step(
    state: DecoderState, q_new, k_new, v_new
) -> tuple[np.ndarray, DecoderState]:
    """Attend the new token over the cache, then maybe aggregate.

    Mutates `state` in place and returns it alongside the attention
    output. Aggregation fires when the tail reaches ceil(1.1 m) rows,
    collapsing the oldest m with weights softmax(q . K_member / sqrt(d));
    columns and member dots count towards `dots`. Invalid q/k/v change nothing.
    """
    vecs = [np.asarray(x, dtype=np.float64).reshape(-1) for x in (q_new, k_new, v_new)]
    if any(x.size != state.d for x in vecs):
        raise InvalidInputError(f"q/k/v must have width {state.d}")
    qkv = np.stack(vecs)
    if not np.isfinite(qkv).all():
        raise InvalidInputError("q/k/v contain non-finite entries")
    q = qkv[0]

    if state.rows == state.cache.shape[1]:
        grow = np.empty((2, state.rows, state.d))
        state.cache = np.concatenate([state.cache, grow], axis=1)
    state.cache[:, state.rows] = qkv[1:]
    state.rows += 1
    state.generated += 1

    e, sums = _tile(q[None], [state.cache[0, : state.rows]])
    out = e[0] @ state.cache[1, : state.rows] / sums[0]
    state.dots += state.rows

    m = state.m
    if state.tail_rows >= regroup_threshold(m):
        g = state.focal_rows + state.group_rows
        members = state.cache[:, g : g + m]
        e, sums = _tile(q[None], [members[0]])
        # The aggregate replaces the first member; leftover tail rows move up.
        state.cache[:, g] = e[0] @ members / sums[0]
        state.cache[:, g + 1 : state.rows - m + 1] = state.cache[:, g + m : state.rows]
        state.group_rows += 1
        state.rows -= m - 1
        state.dots += m
    return out, state


def ledger(state: DecoderState) -> ComplexityLedger:
    """Counts for the current state: next-token column cost equals
    focal + block + tail rows; cache entries likewise; dot products are
    the state's `dots`: prefill scoring, aggregates and attention plus
    every decode step's columns and regroup members."""
    return ComplexityLedger(
        per_token_columns=state.rows,
        cache_entries=state.rows,
        score_dot_products=state.dots,
    )


def vanilla_ledger(L: int) -> ComplexityLedger:
    """Full-attention baseline: every token attends all L positions."""
    if L < 0:
        raise InvalidInputError("L must be nonnegative")
    return ComplexityLedger(
        per_token_columns=L, cache_entries=L, score_dot_products=L * L
    )
