"""Grouped attention across query row blocks, the partition layout
against brute force on small edge inputs, and the sampled-score pipeline
against the oracle."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dgalab.attention import AttentionBatch, causal_attention
from dgalab.dga import (
    SampleSpec,
    build_group_mask,
    compute_partition,
    dga_attention,
    dga_attention_with_partition,
    partition_tokens,
)
from dgalab.oracles import mask_by_reachability, naive_dga_attention
from dgalab.rng import RngStream


def random_batch(rng, L, d):
    return AttentionBatch(
        rng.normal(size=(L, d)), rng.normal(size=(L, d)), rng.normal(size=(L, d))
    )


def test_rows_across_block_boundaries_match_oracle_and_stay_causal():
    """L=300 spans four full tiles of 64 query rows and a partial fifth."""
    rng = np.random.default_rng(23)
    L, d = 300, 8
    batch = random_batch(rng, L, d)
    part = compute_partition(batch, 4, 0.1)
    # Some block straddles a tile boundary, so the later tile's token
    # window starts before its first row.
    first, last = part.groups[:, :1], part.groups[:, -1:]
    assert ((first < [128, 256]) & ([128, 256] <= last)).any()
    base = dga_attention_with_partition(batch, part)
    np.testing.assert_allclose(base, naive_dga_attention(batch, part), atol=1e-12)
    for j in (63, 64, 126, 127, 128, 129, 191, 192, 254, 255, 256, 257, L - 1):
        for field in range(3):
            arrays = [batch.q.copy(), batch.k.copy(), batch.v.copy()]
            arrays[field][j] += 25.0
            pert = dga_attention_with_partition(AttentionBatch(*arrays), part)
            np.testing.assert_array_equal(pert[:j], base[:j])


def scaled_batch(seed, L, d, reach):
    """Gaussian Q/K/V with Q scaled so the largest |q.k| / sqrt(d) is reach."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(L, d)) for _ in range(3))
    q *= reach / np.abs(q @ k.T / np.sqrt(d)).max()
    return AttentionBatch(q, k, v)


@st.composite
def grouped_cases(draw, lengths, blocks, gammas=(0.1, 0.5, 1.0)):
    L = draw(lengths)
    m = draw(blocks)
    gamma = draw(st.sampled_from([1.0 / L, *gammas]))
    # Few distinct integer scores, so ties decide most of the partition.
    scores = np.array(draw(st.lists(st.integers(0, 3), min_size=L, max_size=L)), float)
    d = draw(st.integers(1, 4))
    # exp overflows past 709.78, so reach 1000 needs the tile's max shift.
    reach = draw(st.sampled_from([1.0, 30.0, 700.0, 1000.0]))
    batch = scaled_batch(draw(st.integers(0, 2**32 - 1)), L, d, reach)
    return partition_tokens(scores, gamma, m), batch


def check_against_oracles(part, batch):
    np.testing.assert_array_equal(build_group_mask(part), mask_by_reachability(part))
    np.testing.assert_allclose(
        dga_attention_with_partition(batch, part), naive_dga_attention(batch, part), atol=1e-12
    )


@given(grouped_cases(st.integers(1, 40), st.integers(1, 6)))
def test_partition_layout_matches_brute_force(case):
    part, batch = case
    check_against_oracles(part, batch)
    want = np.full(part.L + 1, part.L)
    for members in part.groups:
        for j in members:
            want[j] = members[-1]
    np.testing.assert_array_equal(part.until, want)


# Lengths at and across the grouped attend's 64-row tile boundaries, which
# also reach across one or two of exact attention's 128-row tiles.
TILE_LENGTHS = st.one_of(
    st.sampled_from([63, 64, 65, 127, 128, 129, 256, 257]), st.integers(120, 300)
)


# The naive oracle takes about 0.8 s at L=260, so few examples, and only
# partitions with real blocks: m = 1 and gamma = 1 across tiles are checked
# against exact attention below.
@settings(max_examples=10)
@given(grouped_cases(TILE_LENGTHS, st.integers(2, 17), gammas=(0.1, 0.5)))
def test_multi_tile_layout_matches_oracles(case):
    check_against_oracles(*case)


@st.composite
def straddled_tile_cases(draw):
    """Partitions in which a block straddles some 64-row tile's first row
    from an earlier member, so the tile's token window starts before it.
    gamma 0.5-0.9 with m <= 4 spreads each block over many focal tokens."""
    L = draw(st.integers(65, 200))
    m, gamma = draw(st.one_of(
        st.tuples(st.integers(2, 17), st.sampled_from([1.0 / L, 0.1, 0.3])),
        st.tuples(st.integers(2, 4), st.floats(0.5, 0.9)),
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    # Distinct scores scatter the non-focal tokens over the whole sequence.
    part = partition_tokens(np.random.default_rng(seed).permutation(L), gamma, m)
    starts = np.arange(64, L, 64)
    assume(((part.groups[:, :1] < starts) & (starts < part.groups[:, -1:])).any())
    reach = draw(st.sampled_from([1.0, 30.0, 700.0, 1000.0]))
    return part, scaled_batch(seed, L, draw(st.integers(1, 4)), reach)


@settings(max_examples=10)
@given(straddled_tile_cases())
def test_blocks_straddling_a_tile_start_match_oracles(case):
    check_against_oracles(*case)


@given(
    st.one_of(TILE_LENGTHS, st.integers(1, 40)),
    st.sampled_from(["all focal", "unit blocks"]),
    st.integers(1, 17),
    st.sampled_from([0.01, 0.1, 0.5]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_all_focal_or_unit_blocks_equal_causal_attention(L, kind, m, gamma, d, seed):
    """gamma = 1 leaves only focal columns; m = 1 leaves only aggregates of
    one token each (and focal columns), so both are exact attention."""
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, L, d)
    scores = rng.integers(0, 4, L).astype(float)
    part = partition_tokens(scores, 1.0, m) if kind == "all focal" else partition_tokens(scores, gamma, 1)
    want, _ = causal_attention(batch)
    np.testing.assert_allclose(dga_attention_with_partition(batch, part), want, atol=1e-12)


@st.composite
def pipeline_cases(draw):
    """A batch with logits up to +-700, m, gamma and a SampleSpec that fits L."""
    L = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    gamma = draw(st.sampled_from([1.0 / L, 0.1, 0.5, 1.0]))
    recent = draw(st.integers(0, L))
    spec = SampleSpec(recent, draw(st.integers(0 if recent else 1, L - recent)))
    reach = draw(st.sampled_from([1.0, 30.0, 700.0]))
    batch = scaled_batch(draw(st.integers(0, 2**32 - 1)), L, draw(st.integers(1, 4)), reach)
    return batch, m, gamma, spec, draw(st.integers(0, 2**32 - 1))


@given(pipeline_cases())
def test_sampled_pipeline_matches_oracle(case):
    """dga_attention with a spec equals the oracle on the partition that
    the same spec and stream give."""
    batch, m, gamma, spec, s = case
    part = compute_partition(batch, m, gamma, spec, RngStream(s))
    got = dga_attention(batch, m, gamma, spec, RngStream(s))
    np.testing.assert_allclose(got, naive_dga_attention(batch, part), rtol=0, atol=1e-12)


@given(pipeline_cases(), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0), st.integers(0, 2**32 - 1))
def test_output_is_linear_in_values(case, a, b, v_seed):
    """The partition reads only Q and K, so the output is linear in V."""
    batch, m, gamma, spec, s = case
    v2 = np.random.default_rng(v_seed).normal(size=batch.v.shape)
    mixed = AttentionBatch(batch.q, batch.k, a * batch.v + b * v2)
    np.testing.assert_array_equal(
        compute_partition(mixed, m, gamma, spec, RngStream(s)).groups,
        compute_partition(batch, m, gamma, spec, RngStream(s)).groups,
    )
    out1 = dga_attention(batch, m, gamma, spec, RngStream(s))
    out2 = dga_attention(AttentionBatch(batch.q, batch.k, v2), m, gamma, spec, RngStream(s))
    got = dga_attention(mixed, m, gamma, spec, RngStream(s))
    tol = 1e-12 * np.abs(mixed.v).max()
    np.testing.assert_allclose(got, a * out1 + b * out2, rtol=0, atol=tol)
