"""Grouped attention across query row blocks, and the partition layout
against brute force on small edge inputs."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from dgalab.attention import AttentionBatch
from dgalab.dga import (
    build_group_mask,
    compute_partition,
    dga_attention_with_partition,
    partition_tokens,
)
from dgalab.oracles import mask_by_reachability, naive_dga_attention


def random_batch(rng, L, d):
    return AttentionBatch(
        rng.normal(size=(L, d)), rng.normal(size=(L, d)), rng.normal(size=(L, d))
    )


def test_rows_across_block_boundaries_match_oracle_and_stay_causal():
    """L=300 spans two full blocks of 128 query rows and a partial third."""
    rng = np.random.default_rng(23)
    L, d = 300, 8
    batch = random_batch(rng, L, d)
    part = compute_partition(batch, 4, 0.1)
    # Some block straddles a row-block boundary, so its complement columns
    # are split between two attend steps.
    assert (part.neighbor[[127, 255]] >= 0).any()
    base = dga_attention_with_partition(batch, part)
    np.testing.assert_allclose(base, naive_dga_attention(batch, part), atol=1e-12)
    for j in (126, 127, 128, 129, 254, 255, 256, 257, L - 1):
        for field in range(3):
            arrays = [batch.q.copy(), batch.k.copy(), batch.v.copy()]
            arrays[field][j] += 25.0
            pert = dga_attention_with_partition(AttentionBatch(*arrays), part)
            np.testing.assert_array_equal(pert[:j], base[:j])


@st.composite
def small_cases(draw):
    L = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    gamma = draw(st.sampled_from([1.0 / L, 0.1, 0.5, 1.0]))
    # Few distinct integer scores, so ties decide most of the partition.
    scores = np.array(draw(st.lists(st.integers(0, 3), min_size=L, max_size=L)), float)
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return partition_tokens(scores, gamma, m), random_batch(np.random.default_rng(seed), L, d)


@given(small_cases())
def test_partition_layout_matches_brute_force(case):
    part, batch = case
    np.testing.assert_array_equal(build_group_mask(part), mask_by_reachability(part))
    np.testing.assert_allclose(
        dga_attention_with_partition(batch, part), naive_dga_attention(batch, part), atol=1e-12
    )
    want = np.full(part.L, -1)
    for g, members in enumerate(part.groups):
        for i in range(part.L):
            if members[0] <= i < members[-1]:
                want[i] = g
    np.testing.assert_array_equal(part.neighbor, want)
