"""Autoregressive decoding with incremental block aggregation.

The whole cache is one growable (2, capacity, d) buffer of key and value
rows, [focal | aggregated blocks | pending tail], seeded by prefill from
the grouped attention layout. Each decode step checks q, k and v once as
one stacked array, writes the new token at the end of the tail and attends
over the live rows -- everything cached is in the past, so no mask is
needed -- with one logit product, exponentiated by `numerics.exp_rows` with a
scalar shift. Once the tail reaches m' = ceil(1.1 m) rows (in integers,
m + (m + 9) // 10), the oldest m of them collapse in place into one new
aggregated row, pooled by `dga._pool` with `exp_rows` of the step's own
logits over them, a 1-D view shifted by its own max, as prefill pools with
its blocks' last queries; a regroup computes no logit. The ledger reports the
cache and `dots`, the logits prefill and the steps computed; `decode-bench`
writes them beside vanilla full attention's, and the per-step trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionBatch, _causal_logits
from .dga import _attend, _pool, compute_partition
from .errors import InvalidInputError, check_finite
from .numerics import exp_rows


def regroup_threshold(m: int) -> int:
    """Tail length that triggers aggregation: ceil(1.1 m), exact in integers."""
    return m + (m + 9) // 10


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
    counts the logits of prefill's _tile calls and of each step's product.
    """

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
    """Run grouped attention over the prompt, scored exactly (not at all at
    r = L, where every token is focal), and seed the decode cache.

    Every prompt token lands in exactly one cache row: focal rows stay
    individual, non-focal rows are already aggregated into their blocks
    (the divisibility promotion leaves no ungrouped remainder), so the
    tail starts empty.
    """
    partition = compute_partition(batch, m, gamma)
    outputs, kv, attended = _attend(batch, partition)
    L, r, k = batch.length, partition.r, partition.k
    # Exact scoring (none at r = L: every token is focal) computes whole causal tiles.
    scored = int(_causal_logits(np.arange(L)).sum()) if r < L else 0
    state = DecoderState(partition.m, kv, focal_rows=r, group_rows=k, rows=r + k,
                         prefill_tokens=L, dots=attended + scored)
    return outputs, state


def decode_step(
    state: DecoderState, q_new, k_new, v_new
) -> tuple[np.ndarray, DecoderState]:
    """Attend the new token over the cache, then maybe aggregate.

    Mutates `state` in place and returns it alongside the attention
    output. Aggregation fires when the tail reaches ceil(1.1 m) rows,
    collapsing the oldest m with weights softmax(q . K_member / sqrt(d)) from
    the step's logits; `dots` grows by the columns. Invalid q/k/v change nothing.
    """
    d = state.cache.shape[2]
    qkv = np.concatenate((q_new, k_new, v_new), axis=None, dtype=np.float64)
    if qkv.size != 3 * d or np.size(q_new) != d or np.size(k_new) != d:
        raise InvalidInputError(f"q/k/v must have width {d}")
    check_finite(qkv, "q/k/v")
    q, rows = qkv[:d], state.rows
    if rows == state.cache.shape[1]:
        state.cache = np.concatenate([state.cache, np.empty((2, rows, d))], axis=1)
    cache = state.cache
    cache[:, rows] = qkv[d:].reshape(2, d)
    rows += 1
    state.generated += 1

    e = (q * (1.0 / math.sqrt(d))) @ cache[0, :rows].T  # q scaled as _tile scales it
    state.dots += rows
    m, g = state.m, state.focal_rows + state.group_rows
    regroup = rows - g >= regroup_threshold(m)
    if regroup:  # shifted by the members' own max: exact far below the step's
        w = np.empty((1, m))
        w_sums = exp_rows(e[g : g + m], w[0])
    total = exp_rows(e, e)
    out = e @ cache[1, :rows] / total
    if regroup:
        # The aggregate replaces the first member; leftover tail rows move up.
        cache[:, g] = _pool(w, w_sums, cache[:, g : g + m])
        cache[:, g + 1 : rows - m + 1] = cache[:, g + m : rows]
        state.group_rows += 1
        rows -= m - 1
    state.rows = rows
    return out, state


def ledger(state: DecoderState) -> ComplexityLedger:
    """Counts for the current state: next-token columns and cache entries are
    the live rows; dot products are `dots`, the logits of prefill (scoring,
    pooling, attend) and of every decode step's columns."""
    return ComplexityLedger(
        per_token_columns=state.rows,
        cache_entries=state.rows,
        score_dot_products=state.dots,
    )
