"""Autoregressive decoding with incremental block aggregation.

The whole cache is one growable (2, capacity, d) buffer of key and value
rows, [focal | aggregated blocks | pending tail], seeded by prefill from
the grouped attention layout. Each decode step writes the new token at
the end of the tail and attends over the live rows -- everything cached
is in the past, so no mask is needed. Once the tail reaches
m' = ceil(1.1 m) rows, the oldest m of them collapse in place into one
new aggregated row, weighted by the current query's softmax over those m
keys. The ledger tracks exact per-token column counts and cache sizes
against the vanilla full-attention baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionBatch
from .dga import _attend, build_grouped_kv, compute_partition
from .errors import InvalidInputError
from .numerics import softmax


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
    the capacity doubles when a new token finds the buffer full.
    """

    d: int
    m: int
    gamma: float
    cache: np.ndarray
    focal_rows: int = 0
    group_rows: int = 0
    rows: int = 0
    generated: int = 0
    prefill_tokens: int = 0
    prefill_dots: int = 0
    decode_dots: int = 0
    trace: list = field(default_factory=list)

    @classmethod
    def empty(cls, d: int, m: int, gamma: float) -> "DecoderState":
        if d < 1 or m < 1:
            raise InvalidInputError("d and m must be at least 1")
        return cls(d, m, gamma, np.zeros((2, 0, d)))

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
    outputs = _attend(batch, kv)
    L, d = batch.q.shape
    r, k = partition.r, partition.k
    comp_width = m if k > 0 else 0
    state = DecoderState(
        d, m, gamma, kv.rows, focal_rows=r, group_rows=k, rows=r + k,
        prefill_tokens=L, prefill_dots=L * (r + k + comp_width),
    )
    return outputs, state


def decode_step(
    state: DecoderState, q_new, k_new, v_new
) -> tuple[np.ndarray, DecoderState]:
    """Attend the new token over the cache, then maybe aggregate.

    Mutates `state` in place and returns it alongside the attention
    output. Aggregation fires when the tail reaches ceil(1.1 m) rows,
    collapsing the oldest m with weights softmax(q . K_member / sqrt(d));
    its m member dot products count towards decode_dots.
    """
    q = np.asarray(q_new, dtype=np.float64).reshape(-1)
    k = np.asarray(k_new, dtype=np.float64).reshape(-1)
    v = np.asarray(v_new, dtype=np.float64).reshape(-1)
    if q.size != state.d or k.size != state.d or v.size != state.d:
        raise InvalidInputError(f"q/k/v must have width {state.d}")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(k)) and np.all(np.isfinite(v))):
        raise InvalidInputError("q/k/v contain non-finite entries")

    if state.rows == state.cache.shape[1]:
        grow = np.empty((2, max(state.rows, 1), state.d))
        state.cache = np.concatenate([state.cache, grow], axis=1)
    state.cache[:, state.rows] = k, v
    state.rows += 1
    state.generated += 1

    keys, values = state.cache[:, : state.rows]
    scale = 1.0 / np.sqrt(state.d)
    weights = softmax((keys @ q) * scale)
    out = weights @ values

    columns = state.rows
    state.decode_dots += columns

    m = state.m
    if state.tail_rows >= regroup_threshold(m):
        g = state.focal_rows + state.group_rows
        members_k, members_v = state.cache[:, g : g + m]
        p = softmax((members_k @ q) * scale)
        # The aggregate replaces the first member; leftover tail rows move up.
        state.cache[:, g] = p @ members_k, p @ members_v
        state.cache[:, g + 1 : state.rows - m + 1] = state.cache[:, g + m : state.rows]
        state.group_rows += 1
        state.rows -= m - 1
        state.decode_dots += m

    state.trace.append(
        (
            state.generated,
            state.focal_rows,
            state.group_rows,
            state.tail_rows,
            columns,
            state.rows,
        )
    )
    return out, state


def ledger(state: DecoderState) -> ComplexityLedger:
    """Counts for the current state: next-token column cost equals
    focal + block + tail rows; cache entries likewise; dot products
    accumulate prefill blocks plus every decode step's columns and
    regroup members."""
    return ComplexityLedger(
        per_token_columns=state.rows,
        cache_entries=state.rows,
        score_dot_products=state.prefill_dots + state.decode_dots,
    )


def vanilla_ledger(L: int) -> ComplexityLedger:
    """Full-attention baseline: every token attends all L positions."""
    if L < 0:
        raise InvalidInputError("L must be nonnegative")
    return ComplexityLedger(
        per_token_columns=L, cache_entries=L, score_dot_products=L * L
    )
