"""Grouped attention pipeline: scoring, partitioning, aggregation, masks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgalab.attention import AttentionBatch, causal_attention
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


def random_batch(rng, L, d):
    return AttentionBatch(
        rng.normal(size=(L, d)), rng.normal(size=(L, d)), rng.normal(size=(L, d))
    )


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

    def test_sampled_scores_pipeline_runs_and_is_deterministic(self):
        rng = np.random.default_rng(21)
        batch = random_batch(rng, 40, 6)
        spec = SampleSpec(8, 8)
        a = dga_attention(batch, 4, 0.2, spec, RngStream(33))
        b = dga_attention(batch, 4, 0.2, spec, RngStream(33))
        np.testing.assert_array_equal(a, b)

    def test_matrix_file_pipeline_round_trip(self, tmp_path):
        """Q/K/V read from the text format drive the pipeline; outputs and
        the 0/1 mask write back in the same format without loss."""
        from dgalab.matrixio import read_matrix, write_matrix

        rng = np.random.default_rng(22)
        batch = random_batch(rng, 12, 4)
        for name, mat in [("Q", batch.q), ("K", batch.k), ("V", batch.v)]:
            write_matrix(tmp_path / f"{name}.mat", mat)
        loaded = AttentionBatch(
            read_matrix(tmp_path / "Q.mat"),
            read_matrix(tmp_path / "K.mat"),
            read_matrix(tmp_path / "V.mat"),
        )
        part = compute_partition(loaded, 3, 0.25)
        out = dga_attention_with_partition(loaded, part)
        np.testing.assert_array_equal(out, dga_attention(batch, 3, 0.25))
        write_matrix(tmp_path / "out.mat", out)
        np.testing.assert_array_equal(read_matrix(tmp_path / "out.mat"), out)
        mask = build_group_mask(part)
        write_matrix(tmp_path / "mask.mat", mask)
        body = (tmp_path / "mask.mat").read_text().splitlines()[2:]
        assert all(set(line.split()) <= {"0", "1"} for line in body)
        np.testing.assert_array_equal(read_matrix(tmp_path / "mask.mat"), mask)
