"""Dynamic group attention.

Pipeline: score each token by its causal attention weight averaged over
every query row that sees it (exact) or over a sampled set of rows, split
tokens into focal and non-focal sets, chunk the non-focal subsequence
into blocks of m, pool each block's keys/values with the softmax of its
last-position query (`_pool`, also decode's regroup), and attend over

    [focal tokens | aggregated blocks | complement tokens]

Every column obeys the rule of `attention._visible`: row i sees column
c iff since[c] <= i < until[c]. A focal token j is [j, L), an aggregate
is [last member, L) and a raw member j is [j, last member), so a query
inside a block sees the members up to itself, and the aggregate once the
block is past: no future token leaks, no past token is lost or counted
twice. The scorer runs on `attention._causal_tiles`, the causal tile loop
exact attention runs on. The attend runs `attention._tile` on 64-row tiles
in the scratch `attention._run_shares` hands them and counts their logits;
the raw members of every block a tile straddles lie in one token window.
`build_group_mask` renders the rule as the dense L x (r + k + m) mask
that `dga-check` and the oracle tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionBatch, _causal_tiles, _run_shares, _tile, _visible
from .errors import InvalidInputError, check_count, check_finite
from .rng import RngStream

_TILE_ROWS = 64  # query rows per grouped-attend tile


@dataclass(frozen=True)
class SampleSpec:
    """How many query rows feed the fast importance estimate."""

    recent_count: int = 16
    random_count: int = 16

    def __post_init__(self):
        for field in ("recent_count", "random_count"):
            object.__setattr__(self, field, check_count(getattr(self, field), "sample counts", 0))
        if self.recent_count + self.random_count < 1:
            raise InvalidInputError("at least one sampled row is required")

    def positions(self, L: int, rng: RngStream | None) -> np.ndarray:
        """Sorted sampled query positions: recent block + random earlier."""
        if self.recent_count + self.random_count > L:
            raise InvalidInputError(
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
    both axes. until has L + 1 entries: the last member of token j's block
    for a grouped j, and L for a focal j and for padding slot L. Raw token
    j is visible to row i iff j <= i < until[j].
    """

    L: int
    m: int
    gamma: float
    focal: np.ndarray
    groups: np.ndarray
    until: np.ndarray

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
    Columns no sampled row can see score 0. Each causal tile gives
    (1 / row sums) @ exp(logits), added to the column sums in tile order,
    whatever the worker count.
    """
    L = batch.length
    positions = spec.positions(L, rng)
    parts = _causal_tiles(batch, positions, lambda rows, e, sums: (1.0 / sums) @ e)
    col_sum = np.zeros(L)
    for part in parts:
        col_sum[: part.size] += part
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
    scores = check_finite(scores, "scores")
    if scores.ndim != 1 or scores.size == 0:
        raise InvalidInputError("scores must be a nonempty vector")
    m = _check_budget(m, gamma)
    L = scores.size
    # Tolerate float fuzz like 0.07 * 100 = 7.000000000000001 before ceil.
    r0 = max(1, int(np.ceil(gamma * L - 1e-9)))
    r = r0 + (L - r0) % m
    by_score = np.argsort(-scores, kind="stable")
    focal = np.sort(by_score[:r])
    groups = np.sort(by_score[r:]).reshape(-1, m)
    until = np.full(L + 1, L)
    until[groups] = groups[:, -1:]
    return TokenPartition(L, m, float(gamma), focal, groups, until)


def _check_budget(m: int, gamma: float) -> int:
    if not (0.0 < gamma <= 1.0):
        raise InvalidInputError("gamma must lie in (0, 1]")
    return check_count(m, "m", 1)


def build_grouped_kv(batch: AttentionBatch, partition: TokenPartition) -> np.ndarray:
    """(2, r + k, d) keys and values: the r focal rows in token order, then
    one row per block pooled with its last-position query's softmax.
    Decoding extends this layout with its pending tail."""
    if partition.L != batch.length:
        raise InvalidInputError("partition length mismatch")
    groups, r, m = partition.groups, partition.r, partition.m
    rows = np.empty((2, r + partition.k, batch.width))
    rows[0, :r], rows[1, :r] = batch.k[partition.focal], batch.v[partition.focal]
    keys, values = batch.k[groups], batch.v[groups]
    e, sums = _tile(batch.q[groups[:, -1], None], [keys], out=np.empty((partition.k, 1, m)))
    rows[0, r:], rows[1, r:] = _pool(e, sums, keys), _pool(e, sums, values)
    return rows


def _pool(w: np.ndarray, sums: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Rows (..., d) of blocks of members (..., m, d), pooled in one product by
    unnormalised weights w (..., 1, m) over the sums (..., 1) exp_rows gave the
    caller: the only place an aggregate forms. Decode pools (2, m, d) over one scalar sum."""
    return (w @ members)[..., 0, :] / sums


def build_group_mask(partition: TokenPartition) -> np.ndarray:
    """L x (r + k + m) 0/1 rendering of the visibility rule. Row i's m
    complement columns are the members of the first block ending after i,
    the only block that can straddle it, or slot L when there is none."""
    L, ends = partition.L, partition.groups[:, -1]
    rows = np.arange(L)
    members = np.vstack([partition.groups, np.full((1, partition.m), L)])
    members = members[np.searchsorted(ends, rows, side="right")]
    summary = _visible(rows, np.concatenate([partition.focal, ends]), L)
    complement = _visible(rows, members, partition.until[members])
    return np.hstack([summary, complement]).astype(np.float64)


def _attend(batch: AttentionBatch, partition: TokenPartition) -> tuple:
    """(dga_attention_with_partition, its build_grouped_kv rows, all logits computed)."""
    keys, values = kv = build_grouped_kv(batch, partition)
    r, L = partition.r, partition.L
    focal, ends = partition.focal, partition.groups[:, -1]
    # Blocks chunk the non-focal tokens in order, so the members of every
    # block straddling a tile row lie in one window [lo, stop). Every row
    # sees aggregates [:b0] and the focal tokens before lo; the window
    # serves the focal tokens from lo on.
    starts = np.arange(0, L, _TILE_ROWS)
    stops = np.append(starts[1:], L)
    b0, b = (np.searchsorted(ends, rows, side="right") for rows in (starts, stops - 1))
    lo = np.minimum(starts, np.append(partition.groups[:, 0], L)[b0])
    a = np.searchsorted(focal, lo)
    logits = (stops - starts) * (a + b + stops - lo)
    tiles = np.stack([starts, stops, b0, b, lo, a], axis=1).tolist()
    out = np.empty_like(batch.q)

    def run_tile(t, buf):
        start, stop, b0, b, lo, a = tiles[t]
        since = np.concatenate([ends[b0:b], np.arange(lo, stop)])
        until = np.concatenate([np.full(b - b0, L), partition.until[lo:stop]])
        e, sums = _tile(batch.q[start:stop], [keys[:a], keys[r : r + b], batch.k[lo:stop]],
                        np.arange(start, stop), since, until, out=buf.reshape(stop - start, -1))
        o = e[:, :a] @ values[:a] + e[:, a : a + b] @ values[r : r + b]
        o += e[:, a + b :] @ batch.v[lo:stop]
        out[start:stop] = o / sums[:, None]

    _run_shares(logits, run_tile)
    return out, kv, int(logits.sum()) + partition.k * partition.m


def dga_attention_with_partition(
    batch: AttentionBatch, partition: TokenPartition
) -> np.ndarray:
    """Grouped attention output for a fixed, precomputed partition.

    Query rows go through in tiles of _TILE_ROWS. A tile computes logits
    only for the focal tokens before its window, the aggregates its last
    row can see, and the window of raw tokens that holds its straddled
    blocks' members; _tile hides the rest at -inf. The output, not the
    weights, is divided by the row sums.
    """
    return _attend(batch, partition)[0]


def compute_partition(
    batch: AttentionBatch,
    m: int,
    gamma: float,
    spec: SampleSpec | None = None,
    rng: RngStream | None = None,
) -> TokenPartition:
    """Check m and gamma, then score tokens over every query row (skipped at
    gamma = 1: every token is focal) or the spec's sampled rows, and partition."""
    _check_budget(m, gamma)
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
