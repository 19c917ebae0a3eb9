"""Reference causal attention against a double-loop oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batches import random_batch, scaled_batch
from dgalab.attention import AttentionBatch, _tile, causal_attention
from dgalab.errors import InvalidInputError
from dgalab.oracles import naive_causal_attention


class TestCausalAttention:
    def test_single_token_passes_value_through(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng, 1, 5)
        out, weights = causal_attention(batch)
        np.testing.assert_allclose(out[0], batch.v[0], atol=1e-15)
        np.testing.assert_allclose(weights, [[1.0]], atol=1e-15)

    def test_zero_queries_average_uniformly(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(3, 4))
        batch = AttentionBatch(np.zeros((3, 4)), rng.normal(size=(3, 4)), v)
        out, weights = causal_attention(batch)
        for i in range(3):
            np.testing.assert_allclose(out[i], v[: i + 1].mean(axis=0), atol=1e-14)
            np.testing.assert_allclose(weights[i, : i + 1], np.full(i + 1, 1 / (i + 1)))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, 8, 4)
        out, weights = causal_attention(batch)
        want_out, want_weights = naive_causal_attention(batch)
        np.testing.assert_allclose(out, want_out, atol=1e-12)
        np.testing.assert_allclose(weights, want_weights, atol=1e-12)

    def test_rows_sum_to_one_and_are_causal(self):
        rng = np.random.default_rng(3)
        for L, d in [(2, 1), (16, 8), (32, 3)]:
            _, weights = causal_attention(random_batch(rng, L, d))
            np.testing.assert_allclose(weights.sum(axis=1), np.ones(L), atol=1e-12)
            assert np.all(weights[np.triu_indices(L, k=1)] == 0.0)

    def test_future_rows_have_exactly_zero_influence(self):
        """Perturbing K or V at position j changes no output or weight row
        before j, whether j shares a 128-row tile with those rows or not."""
        rng = np.random.default_rng(4)
        for L in (2, 9, 32, 257):
            batch = random_batch(rng, L, 4)
            base, base_weights = causal_attention(batch)
            # At L=257: j inside tile 0, at both tile edges, and inside tiles 1 and 2.
            for j in range(1, L) if L <= 32 else (1, 64, 127, 128, 129, 200, 255, 256):
                for field in ("k", "v"):
                    arrays = {"q": batch.q.copy(), "k": batch.k.copy(), "v": batch.v.copy()}
                    arrays[field][j] += 100.0
                    pert, pert_weights = causal_attention(AttentionBatch(**arrays))
                    np.testing.assert_array_equal(pert[:j], base[:j])
                    np.testing.assert_array_equal(pert_weights[:j], base_weights[:j])

    def test_logits_past_exp_overflow_stay_finite(self):
        """Logits up to 2000 overflow exp unless each row is max-shifted."""
        batch = scaled_batch(6, 200, 3, 2000.0)
        out, weights = causal_attention(batch)
        want_out, want_weights = naive_causal_attention(batch)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-12)

    def test_query_key_scale_cancellation(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 12, 6)
        _, w1 = causal_attention(batch)
        c = 37.5
        _, w2 = causal_attention(AttentionBatch(batch.q * c, batch.k / c, batch.v))
        np.testing.assert_allclose(w1, w2, atol=1e-10)

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInputError, match="sequence length is zero"):
            AttentionBatch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))

    def test_zero_width_rejected_without_a_warning(self):
        """Width 0 used to reach a division by sqrt(0) in every attention path."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                AttentionBatch(np.zeros((4, 0)), np.zeros((4, 0)), np.zeros((4, 0)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            AttentionBatch(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 3)))


# Lengths across one or two 128-row tile boundaries.
TILE_LENGTHS = st.one_of(st.sampled_from([127, 128, 129, 256, 257]), st.integers(120, 300))


# The double-loop oracle takes a few tenths of a second at L=300.
@settings(max_examples=25)
@given(
    st.one_of(TILE_LENGTHS, st.integers(1, 40)),
    st.integers(1, 6),
    st.sampled_from([1.0, 30.0, 700.0]),
    st.integers(0, 2**32 - 1),
)
def test_causal_tiles_match_oracle_with_extreme_logits(L, d, reach, seed):
    batch = scaled_batch(seed, L, d, reach)
    out, weights = causal_attention(batch)
    want_out, want_weights = naive_causal_attention(batch)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-12)
    assert np.all(weights[np.triu_indices(L, k=1)] == 0.0)
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(L), rtol=0, atol=1e-12)


@given(
    st.one_of(st.just(1), st.integers(1, 96)),
    st.lists(st.integers(0, 40), min_size=1, max_size=3).filter(any),
    st.sampled_from([1.0, 30.0, 700.0, 1000.0]),
    st.integers(0, 2**32 - 1),
)
def test_single_query_tile_is_row_zero_of_the_batched_tile(d, widths, reach, seed):
    """A (d,) query returns (cols,) weights and a scalar sum, bit for bit the
    (1, d) call's row 0, with |logits| up to reach."""
    rng = np.random.default_rng(seed)
    q, blocks = rng.normal(size=d), [rng.normal(size=(w, d)) for w in widths]
    q *= reach / np.abs(np.vstack(blocks) @ q / np.sqrt(d)).max()
    e, total = _tile(q, blocks, out=np.empty(sum(widths)))
    e_rows, sums = _tile(q[None], blocks, out=np.empty((1, sum(widths))))
    assert e.shape == (sum(widths),) and np.ndim(total) == 0
    np.testing.assert_array_equal(e, e_rows[0])
    assert total == sums[0]


@pytest.mark.parametrize("d", [1, 4, 16, 64])
def test_query_scaling_equals_logit_scaling_when_root_d_is_a_power_of_two(d):
    """Multiplying by 1/sqrt(d) = 2^-j is exact, so scaling q before the
    product gives the logits scaled after it, bit for bit."""
    rng = np.random.default_rng(d)
    q, keys = rng.normal(size=(5, d)) * 30, rng.normal(size=(7, d))
    logits = (q @ keys.T) * (1.0 / np.sqrt(d))
    e, sums = _tile(q, [keys], out=np.empty((5, 7)))
    want = np.exp(logits - logits.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(e, want)
    np.testing.assert_array_equal(sums, want.sum(axis=-1))


def pinned_tile(q, blocks, rows=None, since=None, until=None):
    """_tile's arithmetic, copied here so that a rewrite must keep its bits:
    scaled queries, one product per block, the band hidden at -inf, the row
    max subtracted, then exp and row sums."""
    q = q * (1.0 / math.sqrt(q.shape[-1]))
    out = np.empty(q.shape[:-1] + (sum(block.shape[-2] for block in blocks),))
    col = 0
    for block in blocks:
        width = block.shape[-2]
        np.matmul(q, block.swapaxes(-1, -2), out=out[..., col : col + width])
        col += width
    if rows is not None:
        i = rows[:, None]
        np.copyto(out[..., col - since.size :], -np.inf, where=~((since <= i) & (i < until)))
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    return out, out.sum(axis=-1)


def _tile_queries(rng, n, d, blocks, reach):
    """(n, d) queries scaled so the largest |logit| over blocks is reach; the
    last two rows are +0 and -0, so their logits and row max are zeros."""
    q = rng.normal(size=(n, d))
    q *= reach / np.abs(q @ np.vstack(blocks).T / np.sqrt(d)).max()
    q[-2:] = [[0.0], [-0.0]]
    return q


@pytest.mark.parametrize("reach", [1.0, 30.0, 700.0, 1000.0])
@pytest.mark.parametrize("seed", range(3))
def test_tile_keeps_its_pinned_bits(reach, seed):
    """_tile's (e, sums) equal pinned_tile's with ==, unmasked, masked as the
    causal loop masks (into a strided weight-matrix view), masked as the
    grouped attend masks, and batched in the (k, 1, m) pooling form."""
    rng = np.random.default_rng(seed)
    d, L = 8, 150
    keys = rng.normal(size=(L, d))
    cases = []
    blocks = [keys[:30], keys[40:41], keys[50:90]]
    cases.append((_tile_queries(rng, 9, d, blocks, reach), blocks, (), np.empty((9, 71))))
    start, end = 20, 100  # causal: rows [20, 100) over K[:100], band above the diagonal
    weights = np.zeros((L, L))
    rows = np.arange(start, end)
    cases.append((_tile_queries(rng, end - start, d, [keys[:end]], reach), [keys[:end]],
                  (rows, np.arange(start + 1, end), end), weights[start:end, :end]))
    blocks = [keys[:12], keys[60:70], keys[100:140]]  # grouped: 12 + 10 columns seen by every row
    since = rng.integers(0, 64, 40)
    until = since + rng.integers(1, 64, 40)
    cases.append((_tile_queries(rng, 64, d, blocks, reach), blocks,
                  (np.arange(64), since, until), np.empty((64, 62))))
    k, m = 7, 4
    members = rng.normal(size=(k, m, d))
    q = _tile_queries(rng, k, d, [members.reshape(-1, d)], reach)[:, None]
    cases.append((q, [members], (), np.empty((k, 1, m))))
    for q, blocks, masked, out in cases:
        want_e, want_sums = pinned_tile(q, blocks, *masked)
        e, sums = _tile(q, blocks, *masked, out=out)
        assert np.shares_memory(e, out)
        assert e.shape == want_e.shape and (e == want_e).all()
        assert sums.shape == want_sums.shape and (sums == want_sums).all()
        assert np.isfinite(e).all() and (e.max(axis=-1) == 1.0).all()
