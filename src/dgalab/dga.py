"""Dynamic group attention.

Pipeline: score each token by its causal attention weight averaged over
every query row that sees it (exact) or over a sampled set of rows, split
tokens into focal and non-focal sets, chunk the non-focal subsequence
into blocks of m, pool each block's keys/values with the softmax of its
last-position query (`_pool`, which decoding shares), and attend over

    [focal tokens | aggregated blocks | complement tokens]

One token-level predicate, `_visible`, decides which columns a query
sees. The complement exposes the raw members, up to the query, of the
block that straddles it, so queries inside a partially visible block
neither leak future tokens nor lose past ones. Attention runs in tiles of
64 query rows; a tile's complement is one window of raw tokens holding
every straddled block's members, and only columns past its first row are
masked. `build_group_mask` renders the predicate as the dense
L x (r + k + m) mask, each row's m block members as its complement, that
`dga-check` and the oracle tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import _ROW_BLOCK, AttentionBatch, _causal_tile
from .errors import InvalidInputError, InvalidSpecError
from .rng import RngStream

_TILE_ROWS = 64  # query rows per grouped-attend tile


@dataclass(frozen=True)
class SampleSpec:
    """How many query rows feed the fast importance estimate."""

    recent_count: int = 16
    random_count: int = 16

    def __post_init__(self):
        if self.recent_count < 0 or self.random_count < 0:
            raise InvalidSpecError("sample counts must be nonnegative")
        if self.recent_count + self.random_count < 1:
            raise InvalidSpecError("at least one sampled row is required")

    def positions(self, L: int, rng: RngStream | None) -> np.ndarray:
        """Sorted sampled query positions: recent block + random earlier."""
        if self.recent_count + self.random_count > L:
            raise InvalidSpecError(
                f"spec samples {self.recent_count + self.random_count} rows "
                f"but the sequence has only {L}"
            )
        recent = np.arange(L - self.recent_count, L)
        if self.random_count == 0:
            return recent
        if rng is None:
            raise InvalidInputError("random sampling requires an RngStream")
        earlier = rng.choice_without_replacement(
            L - self.recent_count, self.random_count
        )
        return np.concatenate([earlier, recent])


@dataclass(frozen=True)
class TokenPartition:
    """Focal indices plus contiguous blocks over the non-focal subsequence.

    groups is the (k, m) int64 array of block members, ascending along
    both axes; neighbor[i] is the block that straddles token i (first
    member <= i < last member), or -1. block_of[j] is token j's block, or
    -2, which matches no neighbor, for focal j and slot L (index -1).
    """

    L: int
    m: int
    gamma: float
    focal: np.ndarray
    groups: np.ndarray
    neighbor: np.ndarray
    block_of: np.ndarray

    @property
    def r(self) -> int:
        return self.focal.size

    @property
    def k(self) -> int:
        return self.groups.shape[0]


def importance_scores_exact(batch: AttentionBatch) -> np.ndarray:
    """Each column's causal attention weight averaged over the L - i rows
    that can see it: the sampled estimate with every row sampled."""
    return approx_importance_scores(batch, SampleSpec(batch.length, 0))


def approx_importance_scores(
    batch: AttentionBatch, spec: SampleSpec, rng: RngStream | None = None
) -> np.ndarray:
    """Importance scores from a sampled subset of query rows.

    Each sampled row p contributes its causal softmax over positions
    <= p; column i is averaged over the sampled rows that can see it.
    Columns no sampled row can see score 0. Each causal tile of sorted
    rows adds (1 / row sums) @ exp(logits) to the column sums.
    """
    L = batch.length
    positions = spec.positions(L, rng)
    col_sum = np.zeros(L)
    for start in range(0, positions.size, _ROW_BLOCK):
        e, sums = _causal_tile(batch, positions[start : start + _ROW_BLOCK])
        col_sum[: e.shape[1]] += (1.0 / sums) @ e
    # positions is sorted, so rows seeing column i are those with p >= i.
    visible = positions.size - np.searchsorted(positions, np.arange(L))
    scores = np.zeros(L)
    np.divide(col_sum, visible, out=scores, where=visible > 0)
    return scores


def partition_tokens(scores, gamma: float, m: int) -> TokenPartition:
    """Split tokens by score into focal singles and non-focal blocks of m.

    The top max(1, ceil(gamma * L)) scorers are focal; if the remainder is
    not divisible by m, the next-highest scorers are promoted until it is.
    Ties break by ascending index. Remaining tokens are chunked, in
    original order, into consecutive blocks of m.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise InvalidInputError("scores must be a nonempty vector")
    if not (0.0 < gamma <= 1.0):
        raise InvalidInputError("gamma must lie in (0, 1]")
    if m < 1:
        raise InvalidInputError("m must be at least 1")
    L = scores.size
    # Tolerate float fuzz like 0.07 * 100 = 7.000000000000001 before ceil.
    r0 = max(1, int(np.ceil(gamma * L - 1e-9)))
    r = r0 + (L - r0) % m
    by_score = np.argsort(-scores, kind="stable")
    focal = np.sort(by_score[:r])
    non_focal = np.setdiff1d(np.arange(L, dtype=np.int64), focal, assume_unique=True)
    groups = non_focal.reshape(-1, m)
    # The only block that can straddle i is the first one ending after i;
    # the appended L stands for "no such block" and never starts <= i.
    tokens = np.arange(L)
    g = np.searchsorted(groups[:, -1], tokens, side="right")
    first = np.append(groups[:, 0], L)
    neighbor = np.where(first[g] <= tokens, g, -1)
    block_of = np.full(L + 1, -2)
    block_of[groups] = np.arange(groups.shape[0])[:, None]
    return TokenPartition(L, m, float(gamma), focal, groups, neighbor, block_of)


def _pool(keys: np.ndarray, q: np.ndarray, *values: np.ndarray) -> list:
    """softmax(keys . q / sqrt(d)) over the key axis, applied to each value
    stack: keys (..., n, d), q (..., d), stacks (..., n, d'). Returns one
    (..., d') array per stack."""
    w = (keys @ q[..., None])[..., 0]
    w *= 1.0 / np.sqrt(q.shape[-1])
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return [(w[..., None, :] @ v)[..., 0, :] for v in values]


def build_grouped_kv(batch: AttentionBatch, partition: TokenPartition) -> np.ndarray:
    """(2, r + k, d) keys and values: the r focal rows in token order, then
    one row per block pooled with its last-position query's softmax.
    Decoding extends this layout with its pending tail."""
    if partition.L != batch.length:
        raise InvalidInputError("partition length mismatch")
    groups, r = partition.groups, partition.r
    members_k = batch.k[groups]
    rows = np.empty((2, r + partition.k, batch.width))
    rows[0, :r], rows[1, :r] = batch.k[partition.focal], batch.v[partition.focal]
    rows[0, r:], rows[1, r:] = _pool(members_k, batch.q[groups[:, -1]], members_k, batch.v[groups])
    return rows


def _visible(partition: TokenPartition, rows: np.ndarray, focal: np.ndarray,
             ends: np.ndarray, tokens: np.ndarray) -> tuple:
    """Which of the given focal tokens, block ends and complement tokens each row sees.

    A focal token once it is past, a block's aggregate once its last member
    is past, and a complement token once it is past if it is a member of
    the block that straddles the row. tokens is one vector shared by all
    rows or one row of tokens per query; index -1 pads. Every past token is
    reachable through exactly one column, and no future token through any.
    """
    i = rows[:, None]
    member = partition.block_of[tokens] == partition.neighbor[i]
    return focal <= i, ends <= i, member & (tokens <= i)


def build_group_mask(partition: TokenPartition) -> np.ndarray:
    """L x (r + k + m) 0/1 rendering of the visibility predicate; its m
    complement columns are the members of each row's straddling block."""
    # A row with no straddling block reads the padding row of -1s.
    members = np.vstack([partition.groups, np.full((1, partition.m), -1)])[partition.neighbor]
    rows = np.arange(partition.L)
    parts = _visible(partition, rows, partition.focal, partition.groups[:, -1], members)
    return np.concatenate(parts, axis=1).astype(np.float64)


def _attend(batch: AttentionBatch, partition: TokenPartition, kv: np.ndarray) -> np.ndarray:
    """dga_attention_with_partition over the rows build_grouped_kv returned."""
    keys, values = kv
    r, scale = partition.r, 1.0 / np.sqrt(batch.width)
    focal, ends = partition.focal, partition.groups[:, -1]
    out = np.empty_like(batch.q)
    for start in range(0, partition.L, _TILE_ROWS):
        stop = min(start + _TILE_ROWS, partition.L)
        # Focal tokens and block ends are sorted, so the tile sees prefixes
        # [:a] and [:b] of them, and every row sees [:a0] and [:b0].
        a0, a = np.searchsorted(focal, [start, stop - 1], "right")
        b0, b = np.searchsorted(ends, [start, stop - 1], "right")
        # Blocks chunk the non-focal tokens in order, so every straddled
        # block's members lie in one window [lo, stop) of raw tokens.
        g = partition.neighbor[start]
        lo = partition.groups[g, 0] if g >= 0 else start
        q = batch.q[start:stop] * scale
        e = np.empty((stop - start, a + b + stop - lo))
        np.matmul(q, keys[:a].T, out=e[:, :a])
        np.matmul(q, keys[r : r + b].T, out=e[:, a : a + b])
        np.matmul(q, batch.k[lo:stop].T, out=e[:, a + b :])
        seen = _visible(partition, np.arange(start, stop), focal[a0:a], ends[b0:b],
                        np.arange(lo, stop))
        for cols, vis in zip((e[:, a0:a], e[:, a + b0 : a + b], e[:, a + b :]), seen):
            np.copyto(cols, -np.inf, where=~vis)
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        o = e[:, :a] @ values[:a] + e[:, a : a + b] @ values[r : r + b]
        o += e[:, a + b :] @ batch.v[lo:stop]
        out[start:stop] = o / e.sum(axis=1, keepdims=True)
    return out


def dga_attention_with_partition(
    batch: AttentionBatch, partition: TokenPartition
) -> np.ndarray:
    """Grouped attention output for a fixed, precomputed partition.

    Query rows go through in tiles of _TILE_ROWS. A tile computes logits
    only for the focal and aggregate prefixes its last row can see and
    for the window of raw tokens that holds its straddled blocks' members;
    _visible hides the rest at -inf. The output, not the weights, is
    divided by the row sums.
    """
    return _attend(batch, partition, build_grouped_kv(batch, partition))


def compute_partition(
    batch: AttentionBatch,
    m: int,
    gamma: float,
    spec: SampleSpec | None = None,
    rng: RngStream | None = None,
) -> TokenPartition:
    """Score tokens over every query row, or the spec's sampled rows, and
    partition. Exact scoring is skipped at gamma = 1: every token is focal."""
    if spec is None:
        scores = importance_scores_exact(batch) if gamma < 1.0 else np.zeros(batch.length)
        return partition_tokens(scores, gamma, m)
    return partition_tokens(approx_importance_scores(batch, spec, rng), gamma, m)


def dga_attention(
    batch: AttentionBatch,
    m: int,
    gamma: float,
    spec: SampleSpec | None = None,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Full pipeline: importance scores, partition, grouped masked attention."""
    partition = compute_partition(batch, m, gamma, spec, rng)
    return dga_attention_with_partition(batch, partition)
