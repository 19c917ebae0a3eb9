"""Reference causal attention against a double-loop oracle."""

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
    e, total = _tile(q, blocks)
    e_rows, sums = _tile(q[None], blocks)
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
    e, sums = _tile(q, [keys])
    want = np.exp(logits - logits.max(axis=-1, keepdims=True))
    np.testing.assert_array_equal(e, want)
    np.testing.assert_array_equal(sums, want.sum(axis=-1))
