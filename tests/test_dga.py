"""Grouped attention pipeline: scoring, partitioning, aggregation, masks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batches import random_batch, scaled_batch
from dgalab import attention, dga
from dgalab.attention import AttentionBatch, causal_attention
from dgalab.coding import GroupStructure
from dgalab.decode import prefill
from dgalab.dga import (
    SampleSpec,
    approx_importance_scores,
    build_group_mask,
    build_grouped_kv,
    compute_partition,
    dga_attention,
    dga_attention_with_partition,
    importance_scores_exact,
    partition_tokens,
)
from dgalab.errors import InvalidInputError
from dgalab.oracles import (
    importance_scores_loop,
    mask_by_reachability,
    naive_causal_attention,
    naive_dga_attention,
)
from dgalab.rng import RngStream


def sampled_scores_oracle(weights, positions):
    """Column i's mean weight over the sampled rows p >= i; 0 if none."""
    L = weights.shape[0]
    scores = np.zeros(L)
    for i in range(L):
        seen = [weights[p, i] for p in positions if p >= i]
        if seen:
            scores[i] = sum(seen) / len(seen)
    return scores


@st.composite
def scoring_cases(draw):
    """Small batches with logits scaled to reach +-reach, and a SampleSpec."""
    L = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    recent = draw(st.integers(0, L))
    random = draw(st.integers(1 if recent == 0 else 0, L - recent))
    reach = draw(st.sampled_from([1.0, 30.0, 700.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, k, v = (rng.normal(size=(L, d)) for _ in range(3))
    q *= reach / np.abs(q @ k.T / np.sqrt(d)).max()
    return AttentionBatch(q, k, v), SampleSpec(recent, random), draw(st.integers(0, 2**32 - 1))


class TestImportanceScores:
    def test_fixed_three_token_case(self):
        # Zero queries give uniform causal weights: rows [1], [1/2, 1/2], [1/3] * 3.
        rng = np.random.default_rng(24)
        batch = AttentionBatch(np.zeros((3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        np.testing.assert_allclose(
            importance_scores_exact(batch), [11 / 18, 5 / 12, 1 / 3], atol=1e-12
        )

    def test_single_token(self):
        batch = AttentionBatch(np.ones((1, 3)), np.ones((1, 3)), np.ones((1, 3)))
        np.testing.assert_allclose(importance_scores_exact(batch), [1.0])

    def test_uniform_causal_matches_loop_oracle(self):
        L = 12
        rng = np.random.default_rng(25)
        batch = AttentionBatch(np.zeros((L, 3)), rng.normal(size=(L, 3)), rng.normal(size=(L, 3)))
        _, weights = naive_causal_attention(batch)
        np.testing.assert_allclose(
            importance_scores_exact(batch), importance_scores_loop(weights), atol=1e-13
        )

    def test_random_weights_match_loop_oracle(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng, 10, 4)
        _, weights = causal_attention(batch)
        np.testing.assert_allclose(
            importance_scores_exact(batch), importance_scores_loop(weights), atol=1e-13
        )


class TestApproxImportanceScores:
    def test_full_sample_equals_exact(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, 10, 4)
        _, weights = causal_attention(batch)
        exact = importance_scores_loop(weights)
        approx = approx_importance_scores(batch, SampleSpec(10, 0))
        np.testing.assert_allclose(approx, exact, atol=1e-12)

    def test_full_sample_with_random_rows_equals_exact(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng, 12, 3)
        _, weights = causal_attention(batch)
        approx = approx_importance_scores(batch, SampleSpec(4, 8), RngStream(2))
        np.testing.assert_allclose(
            approx, importance_scores_loop(weights), atol=1e-12
        )

    def test_single_recent_row_reads_last_attention_row(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 8, 4)
        _, weights = causal_attention(batch)
        approx = approx_importance_scores(batch, SampleSpec(1, 0))
        np.testing.assert_allclose(approx, weights[-1], atol=1e-14)

    def test_seeded_sampling_is_deterministic(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, 64, 8)
        a = approx_importance_scores(batch, SampleSpec(8, 8), RngStream(7))
        b = approx_importance_scores(batch, SampleSpec(8, 8), RngStream(7))
        np.testing.assert_array_equal(a, b)

    def test_top_overlap_with_exact_is_reported_not_asserted(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 64, 8)
        _, weights = causal_attention(batch)
        exact = importance_scores_loop(weights)
        approx = approx_importance_scores(batch, SampleSpec(8, 8), RngStream(8))
        top_exact = set(np.argsort(-exact)[:8])
        top_approx = set(np.argsort(-approx)[:8])
        overlap = len(top_exact & top_approx)
        assert 0 <= overlap <= 8

    def test_oversized_spec_rejected(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, 6, 2)
        with pytest.raises(InvalidInputError, match="spec samples 8 rows but the sequence has only 6"):
            approx_importance_scores(batch, SampleSpec(4, 4), RngStream(0))

    @pytest.mark.parametrize("counts", [
        (2.5, 0), (0, 2.5), (np.float64(4), 4), (4, np.float64(4)), (-1, 4), (4, -1), (0, 0),
    ])
    def test_bad_sample_counts_rejected_before_any_scoring(self, monkeypatch, counts):
        """A count that is negative or not an integer, or no row at all, raises
        InvalidInputError before the scorer computes a tile."""
        def spy(*args, **kwargs):
            raise AssertionError("the scorer ran")

        monkeypatch.setattr(attention, "_tile", spy)
        batch = random_batch(np.random.default_rng(27), 300, 4)
        runs = [lambda: approx_importance_scores(batch, SampleSpec(*counts), RngStream(0)),
                lambda: compute_partition(batch, 4, 0.1, SampleSpec(*counts), RngStream(0)),
                lambda: dga_attention(batch, 4, 0.1, SampleSpec(*counts), RngStream(0))]
        for run in runs:
            with pytest.raises(InvalidInputError, match="sample counts|one sampled row"):
                run()

    def test_numpy_integer_counts_and_m_are_valid(self):
        """np.uint8(4) used to overflow in partition_tokens' promotion
        arithmetic (Python int 296 % np.uint8(4) stays uint8)."""
        batch = random_batch(np.random.default_rng(28), 300, 4)
        spec, np_spec = SampleSpec(8, 8), SampleSpec(np.int64(8), np.int32(8))
        want = approx_importance_scores(batch, spec, RngStream(0))
        np.testing.assert_array_equal(approx_importance_scores(batch, np_spec, RngStream(0)), want)
        for m in (np.int64(4), np.int32(4), np.uint8(4)):
            got = compute_partition(batch, m, 0.1, np_spec, RngStream(1))
            part = compute_partition(batch, 4, 0.1, spec, RngStream(1))
            assert type(got.m) is int
            np.testing.assert_array_equal(got.focal, part.focal)
            np.testing.assert_array_equal(got.groups, part.groups)
        groups = GroupStructure(np.int32(16), np.uint8(4))
        assert groups == GroupStructure(16, 4) and type(groups.L) is type(groups.m) is int

    def test_random_rows_require_stream(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, 8, 2)
        with pytest.raises(InvalidInputError):
            approx_importance_scores(batch, SampleSpec(2, 2), None)

    def test_rows_across_score_blocks_match_oracles(self):
        """L=300 scores in three blocks of up to 128 rows, 200 sampled rows in two."""
        rng = np.random.default_rng(26)
        L = 300
        batch = random_batch(rng, L, 8)
        _, weights = naive_causal_attention(batch)
        np.testing.assert_allclose(
            importance_scores_exact(batch), importance_scores_loop(weights), rtol=0, atol=1e-13
        )
        spec = SampleSpec(100, 100)
        positions = spec.positions(L, RngStream(27))
        np.testing.assert_allclose(
            approx_importance_scores(batch, spec, RngStream(27)),
            sampled_scores_oracle(weights, positions),
            rtol=0,
            atol=1e-13,
        )

    @given(scoring_cases())
    def test_any_spec_and_extreme_logits_match_oracle(self, case):
        batch, spec, seed = case
        _, weights = naive_causal_attention(batch)
        positions = spec.positions(batch.length, RngStream(seed))
        np.testing.assert_allclose(
            approx_importance_scores(batch, spec, RngStream(seed)),
            sampled_scores_oracle(weights, positions),
            rtol=0,
            atol=1e-12,
        )


class TestPartitionTokens:
    def test_divisible_remainder(self):
        part = partition_tokens(np.arange(10.0), 0.2, 4)
        assert (part.r, part.k) == (2, 2)

    def test_promotion_until_divisible(self):
        part = partition_tokens(np.arange(10.0), 0.2, 3)
        assert (part.r, part.k) == (4, 2)

    def test_gamma_one_all_focal(self):
        part = partition_tokens(np.arange(7.0), 1.0, 3)
        assert (part.r, part.k) == (7, 0)

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            L = int(rng.integers(1, 40))
            m = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.05, 1.0))
            part = partition_tokens(rng.normal(size=L), gamma, m)
            pieces = [part.focal] + list(part.groups)
            merged = np.concatenate(pieces)
            assert np.array_equal(np.sort(merged), np.arange(L))
            assert part.r >= 1
            assert (L - part.r) % m == 0
            assert np.all(part.groups[:-1, -1] < part.groups[1:, 0])

    def test_focal_tokens_are_top_scorers(self):
        scores = np.array([0.1, 0.9, 0.2, 0.8, 0.3, 0.7])
        part = partition_tokens(scores, 1.0 / 3.0, 2)
        assert set(part.focal) == {1, 3}

    def test_ties_break_by_index(self):
        scores = np.zeros(6)
        part = partition_tokens(scores, 0.5, 3)
        assert set(part.focal) == {0, 1, 2}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="scores must be finite"):
            partition_tokens([bad, 1, 2, 0.5, bad, 3], 0.34, 2)

    @pytest.mark.parametrize("bad", [[], 1.0, [[1.0]], np.zeros((2, 3))],
                             ids=["empty", "scalar", "1x1", "2x3"])
    def test_scores_must_be_a_nonempty_vector(self, bad):
        with pytest.raises(InvalidInputError, match="scores must be a nonempty 1-D vector"):
            partition_tokens(bad, 0.5, 2)


def pinned_grouped_kv(batch, part):
    """build_grouped_kv's arithmetic, copied here so that a rewrite must keep
    its bits: the focal rows, then each block's last query scaled, its logits
    over the members, the row max subtracted, exp, and one product per block
    divided by the weights' row sums."""
    groups, r = part.groups, part.r
    rows = np.empty((2, r + part.k, batch.width))
    rows[0, :r], rows[1, :r] = batch.k[part.focal], batch.v[part.focal]
    keys, values = batch.k[groups], batch.v[groups]
    w = np.matmul(batch.q[groups[:, -1], None] * (1.0 / math.sqrt(batch.width)),
                  keys.swapaxes(-1, -2))
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    for j, members in enumerate((keys, values)):
        rows[j, r:] = (w @ members)[..., 0, :] / w.sum(axis=-1)
    return rows


class TestGroupedKV:
    def test_tied_logits_give_uniform_group_weights(self):
        L, d, m = 8, 4, 4
        k = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (L, 1))
        batch = AttentionBatch(np.ones((L, d)), k, np.arange(L * d, dtype=float).reshape(L, d))
        part = partition_tokens(np.arange(L, dtype=float)[::-1], 0.4, m)
        kv = build_grouped_kv(batch, part)
        assert kv.shape == (2, part.r + part.k, d)
        for g, members in enumerate(part.groups):
            np.testing.assert_allclose(kv[0, part.r + g], k[0], rtol=0, atol=1e-15)
            want = batch.v[members].mean(axis=0)
            np.testing.assert_allclose(kv[1, part.r + g], want, rtol=0, atol=1e-13)

    def test_unit_groups_copy_member_rows(self):
        rng = np.random.default_rng(9)
        batch = random_batch(rng, 9, 3)
        part = compute_partition(batch, 1, 0.3)
        kv = build_grouped_kv(batch, part)
        for g, members in enumerate(part.groups):
            np.testing.assert_allclose(kv[0, part.r + g], batch.k[members[0]], atol=1e-15)
            np.testing.assert_allclose(kv[1, part.r + g], batch.v[members[0]], atol=1e-15)

    def test_aggregates_match_loop_oracle(self):
        """Each aggregate pools its block under the softmax of the block's
        last query, also with logits past exp's overflow: each block's
        query is scaled so that its largest |q . k| / sqrt(d) is the reach."""
        rng = np.random.default_rng(10)
        base = random_batch(rng, 12, 4)
        part = compute_partition(base, 3, 0.25)
        scale = 1.0 / np.sqrt(4)
        for reach in (1.0, 1000.0):
            q = base.q.copy()
            for members in part.groups:
                last = members[-1]
                q[last] *= reach / np.abs(base.k[members] @ q[last] * scale).max()
            batch = AttentionBatch(q, base.k, base.v)
            kv = build_grouped_kv(batch, part)
            for g, members in enumerate(part.groups):
                logits = np.array(
                    [np.dot(batch.q[members[-1]], batch.k[j]) * scale for j in members]
                )
                e = np.exp(logits - logits.max())
                p = e / e.sum()
                want_k = sum(p[t] * batch.k[j] for t, j in enumerate(members))
                want_v = sum(p[t] * batch.v[j] for t, j in enumerate(members))
                np.testing.assert_allclose(kv[0, part.r + g], want_k, atol=1e-12)
                np.testing.assert_allclose(kv[1, part.r + g], want_v, atol=1e-12)
            # Constant values pool to themselves: each block's weights sum to one.
            ones = build_grouped_kv(AttentionBatch(q, base.k, np.ones((12, 4))), part)
            np.testing.assert_allclose(ones[1, part.r :], 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L, m, gamma", [
        (1, 1, 0.5), (40, 1, 0.1), (40, 4, 1.0), (300, 1, 0.1), (300, 4, 0.1),
        (300, 16, 0.3), (700, 16, 1.0), (700, 32, 0.05),
    ])
    @pytest.mark.parametrize("reach", [1.0, 1000.0])
    def test_rows_keep_their_pinned_bits(self, L, m, gamma, reach):
        """build_grouped_kv's rows equal pinned_grouped_kv's with ==, with
        the largest |logit| at reach; k = 0 at gamma = 1, unit blocks at m = 1."""
        batch = scaled_batch(L + m, L, 8, reach)
        part = partition_tokens(np.random.default_rng(L).normal(size=L), gamma, m)
        want = pinned_grouped_kv(batch, part)
        got = build_grouped_kv(batch, part)
        assert got.shape == want.shape and (got == want).all()

    def test_until_spans(self):
        """A grouped token's until is its block's last member; a focal
        token's, and padding slot L's, is L."""
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 14, 3)
        part = compute_partition(batch, 3, 0.2)
        assert part.until.shape == (part.L + 1,)
        for j in range(part.L + 1):
            ends = [mem[-1] for mem in part.groups if j in mem]
            assert part.until[j] == (ends[0] if ends else part.L)


class TestGroupMask:
    def test_fully_visible_rows_have_empty_complement(self):
        rng = np.random.default_rng(12)
        batch = random_batch(rng, 12, 3)
        part = compute_partition(batch, 3, 0.25)
        mask = build_group_mask(part)
        last_span_end = part.groups[:, -1].max()
        for i in range(part.L):
            if i > last_span_end:
                assert np.all(mask[i, part.r + part.k :] == 0.0)

    def test_query_inside_its_block_sees_members_via_complement(self):
        """A query in the middle of a block: block column off, complement
        exposes exactly the members at or before the query."""
        L, m = 6, 3
        scores = np.array([9.0, 8.0, 0.0, 0.0, 0.0, 7.0])
        part = partition_tokens(scores, 0.5, m)
        assert list(part.groups[0]) == [2, 3, 4]
        mask = build_group_mask(part)
        i = 3  # second member of the block
        r, k = part.r, part.k
        assert mask[i, r + 0] == 0.0
        np.testing.assert_array_equal(mask[i, r + k :], [1.0, 1.0, 0.0])

    def test_matches_reachability_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            L = int(rng.integers(2, 33))
            m = int(rng.choice([1, 2, 3, 4]))
            gamma = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
            part = partition_tokens(rng.normal(size=L), gamma, m)
            np.testing.assert_array_equal(
                build_group_mask(part), mask_by_reachability(part)
            )

    def test_mask_shape_and_binary_entries(self):
        part = partition_tokens(np.random.default_rng(14).normal(size=20), 0.2, 4)
        mask = build_group_mask(part)
        assert mask.shape == (20, part.r + part.k + 4)
        assert set(np.unique(mask)) <= {0.0, 1.0}


class TestDgaAttention:
    def test_gamma_one_equals_causal(self):
        rng = np.random.default_rng(15)
        for L, d in [(1, 1), (5, 3), (24, 8)]:
            batch = random_batch(rng, L, d)
            ref, _ = causal_attention(batch)
            got = dga_attention(batch, m=4, gamma=1.0)
            np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_single_token_returns_value(self):
        rng = np.random.default_rng(16)
        batch = random_batch(rng, 1, 6)
        np.testing.assert_allclose(dga_attention(batch, 2, 0.5), batch.v, atol=1e-14)

    def test_matches_naive_materialization_oracle(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, 24, 8)
        part = compute_partition(batch, 4, 0.25)
        got = dga_attention_with_partition(batch, part)
        np.testing.assert_allclose(got, naive_dga_attention(batch, part), atol=1e-12)

    def test_unit_groups_equal_causal(self):
        rng = np.random.default_rng(18)
        batch = random_batch(rng, 15, 4)
        ref, _ = causal_attention(batch)
        np.testing.assert_allclose(dga_attention(batch, 1, 0.3), ref, atol=1e-10)

    def test_visible_weights_sum_to_one(self):
        """With all-ones values, each output row is the weight total."""
        rng = np.random.default_rng(19)
        for m, gamma in [(2, 0.1), (3, 0.25), (4, 0.5)]:
            L, d = 21, 5
            batch = AttentionBatch(
                rng.normal(size=(L, d)), rng.normal(size=(L, d)), np.ones((L, d))
            )
            out = dga_attention(batch, m, gamma)
            np.testing.assert_allclose(out, np.ones((L, d)), atol=1e-12)

    def test_future_perturbations_cannot_reach_past_rows(self):
        """With the partition held fixed, the masked grouped layout is
        strictly causal: any change to Q/K/V at position j leaves every
        output row before j untouched."""
        rng = np.random.default_rng(20)
        for m, gamma in [(2, 0.25), (3, 0.1), (4, 0.5)]:
            L, d = 18, 4
            batch = random_batch(rng, L, d)
            part = compute_partition(batch, m, gamma)
            base = dga_attention_with_partition(batch, part)
            for j in range(1, L):
                for field in (0, 1, 2):
                    arrays = [batch.q.copy(), batch.k.copy(), batch.v.copy()]
                    arrays[field][j] += 50.0
                    pert = dga_attention_with_partition(
                        AttentionBatch(*arrays), part
                    )
                    np.testing.assert_array_equal(pert[:j], base[:j])

    @pytest.mark.parametrize("m, gamma, message", [
        (0, 0.1, "m must be at least 1"), (-3, 1.0, "m must be at least 1"),
        (4, 0.0, "gamma must lie"), (4, -0.2, "gamma must lie"), (4, 1.5, "gamma must lie"),
        (2.5, 0.1, "m must be at least 1 and an integer, not 2.5"),
        (np.float64(4), 0.1, "m must be at least 1 and an integer"),
    ])
    def test_bad_m_or_gamma_rejected_before_any_scoring(self, monkeypatch, m, gamma, message):
        """compute_partition, dga_attention and prefill raise before any tile runs."""
        calls = []
        for module in (attention, dga):
            def spy(*args, real=module._tile, **kwargs):
                calls.append(args[0].shape)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "_tile", spy)
        batch = random_batch(np.random.default_rng(23), 300, 4)
        runs = [lambda: compute_partition(batch, m, gamma),
                lambda: compute_partition(batch, m, gamma, SampleSpec(8, 8), RngStream(0)),
                lambda: dga_attention(batch, m, gamma), lambda: prefill(batch, m, gamma)]
        for run in runs:
            with pytest.raises(InvalidInputError, match=message):
                run()
        assert calls == []

    @pytest.mark.parametrize("L, m, gamma", [(1, 4, 0.1), (8, 16, 0.1), (16, 16, 0.01),
                                             (5, 4, 0.25), (20, 4, 1.0)])
    def test_no_spec_scores_or_draws_when_every_token_is_focal(self, monkeypatch, L, m, gamma):
        """At r = L no block forms and scores choose nothing: every spec, even
        one larger than L or missing its RngStream, runs no scoring tile and
        draws nothing, and the partition is all focal."""
        def fail(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return spy

        monkeypatch.setattr(attention, "_tile", fail("the scorer's _tile"))
        monkeypatch.setattr(RngStream, "generator", fail("RngStream.generator"))
        batch = random_batch(np.random.default_rng(L), L, 4)
        args = [(None, None), (SampleSpec(16, 16), None), (SampleSpec(2, 2), RngStream(0))]
        outs = []
        for spec, rng in args:
            part = compute_partition(batch, m, gamma, spec, rng)
            assert np.array_equal(part.focal, np.arange(L)) and part.k == 0
            outs.append(dga_attention(batch, m, gamma, spec, rng))
        assert all(np.array_equal(out, outs[0]) for out in outs)
        _, state = prefill(batch, m, gamma)
        assert state.focal_rows == state.rows == L and state.group_rows == 0

    def test_exact_scoring_runs_once_a_block_forms(self, monkeypatch):
        """At L = 17, m = 16, gamma = 0.01 one token is focal and one block forms,
        so exact scoring runs the scorer's tiles."""
        calls = []

        def spy(*args, real=attention._tile, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(attention, "_tile", spy)
        part = compute_partition(random_batch(np.random.default_rng(17), 17, 4), 16, 0.01)
        assert (part.r, part.k) == (1, 1) and calls

    def test_sampled_scores_pipeline_runs_and_is_deterministic(self):
        rng = np.random.default_rng(21)
        batch = random_batch(rng, 40, 6)
        spec = SampleSpec(8, 8)
        a = dga_attention(batch, 4, 0.2, spec, RngStream(33))
        b = dga_attention(batch, 4, 0.2, spec, RngStream(33))
        np.testing.assert_array_equal(a, b)

    def test_matrix_file_pipeline_round_trip(self, tmp_path):
        """Q/K/V read from dumped matrix files drive the pipeline; outputs
        and the 0/1 mask dump and read back without loss."""
        from dgalab.matrixio import dump_case

        def load(name):
            return np.loadtxt(tmp_path / f"{name}.mat", skiprows=2, ndmin=2)

        rng = np.random.default_rng(22)
        batch = random_batch(rng, 12, 4)
        dump_case(tmp_path, [("Q", batch.q), ("K", batch.k), ("V", batch.v)])
        loaded = AttentionBatch(load("Q"), load("K"), load("V"))
        part = compute_partition(loaded, 3, 0.25)
        out = dga_attention_with_partition(loaded, part)
        np.testing.assert_array_equal(out, dga_attention(batch, 3, 0.25))
        mask = build_group_mask(part)
        dump_case(tmp_path, [("out", out), ("mask", mask)])
        np.testing.assert_array_equal(load("out"), out)
        body = (tmp_path / "mask.mat").read_text().splitlines()[2:]
        assert all(set(line.split()) <= {"0", "1"} for line in body)
        np.testing.assert_array_equal(load("mask"), mask)
