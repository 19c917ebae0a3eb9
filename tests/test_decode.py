"""Incremental decoding: caches, aggregation rule, and cost ledgers."""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batches import random_batch
from dgalab import attention, decode, dga
from dgalab.attention import AttentionBatch
from dgalab.decode import (
    decode_step,
    ledger,
    prefill,
    regroup_threshold,
)
from dgalab.dga import compute_partition, dga_attention
from dgalab.errors import InvalidInputError
from dgalab.oracles import NaiveDecodeSession


def one_token_prefill(rng, d, m):
    """A session whose cache holds one focal prompt token."""
    return prefill(random_batch(rng, 1, d), m, 1.0)


class TestRegroupThreshold:
    def test_ten_percent_slack(self):
        assert regroup_threshold(2) == 3
        assert regroup_threshold(4) == 5
        assert regroup_threshold(10) == 11
        assert regroup_threshold(16) == 18
        assert regroup_threshold(20) == 22

    def test_integer_ceiling_of_eleven_tenths(self):
        m = np.arange(1, 10**5 + 1)
        np.testing.assert_array_equal(regroup_threshold(m), -(-11 * m // 10))
        # ceil(1.1 * m - 1e-9) in floats returns 119576881700 here.
        m = 108706256090
        assert regroup_threshold(m) == -(-11 * m // 10) == 119576881699

    def test_oracle_replays_the_same_threshold(self):
        for m in [*range(1, 10**4 + 1), 108706256090]:
            assert NaiveDecodeSession(1, m).threshold == regroup_threshold(m), m


class TestPrefill:
    def test_single_token(self):
        rng = np.random.default_rng(0)
        _, state = prefill(random_batch(rng, 1, 4), 2, 0.5)
        assert (state.focal_rows, state.group_rows, state.tail_rows) == (1, 0, 0)

    def test_nonpositive_block_rejected(self):
        batch = random_batch(np.random.default_rng(15), 8, 4)
        for m in (0, -3):
            with pytest.raises(InvalidInputError, match="m must be at least 1"):
                prefill(batch, m, 0.5)

    def test_gamma_one_caches_everything_individually(self):
        rng = np.random.default_rng(1)
        L = 12
        _, state = prefill(random_batch(rng, L, 4), 4, 1.0)
        assert state.focal_rows == L
        led = ledger(state)
        assert led.per_token_columns == L
        assert led.cache_entries == L
        assert led.score_dot_products == L * L

    def test_cache_counts_match_partition_arithmetic(self):
        rng = np.random.default_rng(2)
        L, m, gamma = 40, 4, 0.1
        batch = random_batch(rng, L, d := 8)
        outputs, state = prefill(batch, m, gamma)
        part = compute_partition(batch, m, gamma)
        assert state.focal_rows == part.r
        assert state.group_rows == part.k
        assert state.tail_rows == 0
        assert state.dots == ledger(state).score_dot_products
        np.testing.assert_allclose(outputs, dga_attention(batch, m, gamma), atol=1e-14)

    @pytest.mark.parametrize("L", [1, 63, 64, 65, 127, 128, 129, 300, 1000])
    def test_scoring_dots_are_the_tile_loops_entries(self, monkeypatch, L):
        """After prefill, state.dots is the sum of e.size over every _tile call
        it makes (scoring, pooling and the attend), at every m, gamma and CPU
        count. Each decode step then adds the rows it attends and calls no
        _tile: its regroup pools from the logits the step already computed."""
        sizes = []
        for module in (attention, dga):
            def spy(*args, real=module._tile, **kwargs):
                e, sums = real(*args, **kwargs)
                sizes.append(e.size)
                return e, sums

            monkeypatch.setattr(module, "_tile", spy)
        rng = np.random.default_rng(L)
        batch, steps = random_batch(rng, L, 4), rng.normal(size=(24, 3, 4))
        monkeypatch.setattr(attention, "_SHARE_LOGITS", 1)  # 2 CPUs split every loop of 2+ tiles
        mismatches, regroups = [], 0
        for cpus, m, gamma in itertools.product((1, 2), (1, 4, 16), (0.1, 1.0)):
            monkeypatch.setattr(attention.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: set(range(cpus)), raising=False)
            sizes.clear()
            _, state = prefill(batch, m, gamma)
            counts, tiles = [(state.dots, sum(sizes))], len(sizes)
            for q, k, v in steps:
                dots, rows, groups = state.dots, state.rows + 1, state.group_rows
                _, state = decode_step(state, q, k, v)
                counts.append((state.dots - dots, rows))
                regroups += state.group_rows > groups
            if any(got != want for got, want in counts) or len(sizes) != tiles:
                mismatches.append((cpus, m, gamma, counts[0]))
        assert not mismatches
        assert regroups > 0


class TestDecodeStep:
    def test_block_forms_after_threshold(self):
        rng = np.random.default_rng(4)
        _, state = one_token_prefill(rng, 3, 2)
        for step in range(3):
            _, state = decode_step(state, *rng.normal(size=(3, 3)))
        assert state.group_rows == 1
        assert state.tail_rows == 1

    def test_fifty_steps_match_cache_free_oracle(self):
        rng = np.random.default_rng(5)
        L, d, m, gamma = 40, 8, 4, 0.1
        batch = random_batch(rng, L, d)
        _, state = prefill(batch, m, gamma)
        session = NaiveDecodeSession.from_prefill(batch, compute_partition(batch, m, gamma))
        columns = []
        for _ in range(50):
            q, k, v = rng.normal(size=(3, d))
            columns.append(ledger(state).per_token_columns + 1)
            got, state = decode_step(state, q, k, v)
            want = session.step(q, k, v)
            np.testing.assert_allclose(got, want, atol=1e-10)
        assert columns == session.columns_log

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        prompt = random_batch(rng, 1, 4)
        steps = [rng.normal(size=(3, 4)) for _ in range(10)]
        outs = []
        for _ in range(2):
            _, state = prefill(prompt, 2, 1.0)
            outs.append([decode_step(state, *s)[0] for s in steps])
        for a, b in zip(*outs):
            np.testing.assert_array_equal(a, b)

    def test_every_token_lands_in_exactly_one_cache(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, 24, 4)
        _, state = prefill(batch, 3, 0.2)
        for _ in range(37):
            _, state = decode_step(state, *rng.normal(size=(3, 4)))
            total = state.focal_rows + state.m * state.group_rows + state.tail_rows
            assert total == state.total_tokens
            assert state.tail_rows < regroup_threshold(state.m)

    def test_cache_is_written_in_place_and_doubles_when_full(self):
        rng = np.random.default_rng(13)
        _, state = one_token_prefill(rng, 3, 2)
        for _ in range(40):
            cache, full = state.cache, state.rows == state.cache.shape[1]
            _, state = decode_step(state, *rng.normal(size=(3, 3)))
            assert (state.cache is not cache) == full
            assert state.cache.shape[1] in (1, 2, 4, 8, 16, 32)

    def test_dimension_mismatch_rejected(self):
        _, state = one_token_prefill(np.random.default_rng(14), 4, 2)
        with pytest.raises(InvalidInputError):
            decode_step(state, np.zeros(3), np.zeros(4), np.zeros(4))

    def test_every_input_form_gives_identical_outputs(self):
        """(d,) arrays, (1, d) arrays, lists and a mix of shapes with d entries."""
        d = 4
        steps = np.random.default_rng(16).normal(size=(12, 3, d))
        forms = [lambda q, k, v: (q, k, v),
                 lambda q, k, v: (q[None], k[None], v[None]),
                 lambda q, k, v: (q.tolist(), k.tolist(), v.tolist()),
                 lambda q, k, v: (q[None], k.tolist(), v[:, None])]
        outs = []
        for form in forms:
            _, state = prefill(random_batch(np.random.default_rng(17), 8, d), 2, 0.25)
            outs.append(np.array([decode_step(state, *form(*s))[0] for s in steps]))
            assert state.group_rows > 2
        for other in outs[1:]:
            np.testing.assert_array_equal(other, outs[0])

    def test_ragged_width_rejected_without_change(self):
        """q, k or v of width d + 1 beside two of width d raises InvalidInputError,
        not a bare numpy ValueError, and changes nothing."""
        rng = np.random.default_rng(18)
        _, state = prefill(random_batch(rng, 8, 4), 2, 0.25)
        for _ in range(4):
            decode_step(state, *rng.normal(size=(3, 4)))
        for which in range(3):
            _assert_rejected_without_change(state, 4, (which, "width"), rng)

    @pytest.mark.parametrize("widths", [(5, 3, 4), (4, 4, 0), (1, 4, 4)],
                             ids=["sizes-cancel", "v-empty", "q-one-entry"])
    def test_each_vector_needs_d_entries(self, widths):
        _, state = one_token_prefill(np.random.default_rng(19), 4, 2)
        with pytest.raises(InvalidInputError, match="must have width 4"):
            decode_step(state, *(np.zeros(w) for w in widths))
        assert (state.rows, state.generated) == (1, 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["members-far-below", "members-far-above"])
    def test_regroup_pools_exactly_at_extreme_logits(self, sign):
        """At the regroup step the m = 4 members' logits lie within a few units
        of 0, while the focal prompt key's and the new key's lie at 1000 * sign:
        the members sit ~1000 below the step's max, or ~1000 above every other
        row. Outputs and the new aggregate stay finite and match the oracle."""
        rng = np.random.default_rng(21)
        d, m = 4, 4
        spike = np.array([2.0, 0.0, 0.0, 0.0])  # logit q[0] for any q, as sqrt(d) = 2
        prompt = AttentionBatch(rng.normal(size=(1, d)), spike[None], rng.normal(size=(1, d)))
        _, state = prefill(prompt, m, 1.0)
        session = NaiveDecodeSession.from_prefill(prompt, compute_partition(prompt, m, 1.0))
        members = np.zeros((m, d))
        members[:, 1:3] = 2.0 * rng.normal(size=(m, 2))
        steps = [(rng.normal(size=d), key, rng.normal(size=d)) for key in members]
        steps.append((np.array([1000.0 * sign, 3.0, 3.0, 0.0]), spike, rng.normal(size=d)))
        steps += [tuple(rng.normal(size=(3, d))) for _ in range(3)]
        for step, (q, k, v) in enumerate(steps):
            got, state = decode_step(state, q, k, v)
            want = session.step(q, k, v)
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            if step == m:
                assert (sign * (q[0] - members @ q / 2) >= 800).all()
                assert state.group_rows == 1
                aggregate = state.cache[:, state.focal_rows]
                assert np.isfinite(aggregate).all()
                np.testing.assert_allclose(aggregate, [row[-1] for row in session._aggregates()],
                                           rtol=0, atol=1e-12)

    def test_width_one_takes_scalars(self):
        prompt = random_batch(np.random.default_rng(20), 3, 1)
        outs = [decode_step(prefill(prompt, 2, 1.0)[1], *args)[0]
                for args in ((0.5, -1.0, 2.0), (np.array([0.5]), [-1.0], np.array([[2.0]])))]
        np.testing.assert_array_equal(outs[0], outs[1])


class TestLedger:
    def test_column_counts_are_exact(self):
        """Every step, regroup or not, adds exactly the rows it attends."""
        rng = np.random.default_rng(8)
        batch = random_batch(rng, 32, 4)
        _, state = prefill(batch, 4, 0.25)
        groups = state.group_rows
        for _ in range(20):
            before = state.focal_rows + state.group_rows + state.tail_rows
            assert ledger(state).per_token_columns == ledger(state).cache_entries == before
            dots = ledger(state).score_dot_products
            _, state = decode_step(state, *rng.normal(size=(3, 4)))
            assert ledger(state).score_dot_products - dots == before + 1
        assert state.group_rows > groups

    def test_decode_columns_strictly_below_vanilla(self):
        rng = np.random.default_rng(9)
        for m in (2, 4, 8):
            batch = random_batch(rng, 64, 4)
            _, state = prefill(batch, m, 0.1)
            for _ in range(30):
                columns = ledger(state).per_token_columns + 1
                _, state = decode_step(state, *rng.normal(size=(3, 4)))
                assert columns < state.total_tokens

    def test_cache_decreases_with_block_size(self):
        """Below the turning point m ~ sqrt(L - r), larger blocks mean a
        strictly smaller cache."""
        rng = np.random.default_rng(10)
        L, gamma = 128, 0.1
        batch = random_batch(rng, L, 4)
        sizes = []
        for m in (2, 4, 8):
            _, state = prefill(batch, m, gamma)
            sizes.append(ledger(state).cache_entries)
        assert sizes[0] > sizes[1] > sizes[2]

    def test_regroup_dots_are_counted(self):
        """A regroup step counts only the columns it attends: its members'
        pooling weights come from those logits, so the regroup adds no dots."""
        rng = np.random.default_rng(12)
        m = 4
        _, state = prefill(random_batch(rng, 16, 4), m, 0.25)
        kinds = set()
        for _ in range(2 * regroup_threshold(m)):
            before, groups = ledger(state).score_dot_products, state.group_rows
            columns = state.focal_rows + state.group_rows + state.tail_rows + 1
            _, state = decode_step(state, *rng.normal(size=(3, 4)))
            kinds.add(state.group_rows > groups)
            assert ledger(state).score_dot_products == before + columns
        assert kinds == {False, True}

    def test_dots_accumulate(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 16, 4)
        _, state = prefill(batch, 2, 0.25)
        base, rows = ledger(state).score_dot_products, ledger(state).cache_entries
        _, state = decode_step(state, *rng.normal(size=(3, 4)))
        assert ledger(state).score_dot_products == base + rows + 1


@st.composite
def decode_sessions(draw):
    L = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    gamma = draw(st.sampled_from([1.0 / L, 0.1, 0.5, 1.0]))
    steps = draw(st.integers(0, 60))
    # One rejected input, tried before step `at`: a wrong width or a NaN.
    at = draw(st.integers(0, steps))
    bad = (draw(st.integers(0, 2)), draw(st.sampled_from(["width", "nan"])))
    # Largest |logit|; exp overflows past 709.78, so 1000 needs the max shift.
    reach = draw(st.sampled_from([1.0, 30.0, 700.0, 1000.0]))
    focal = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return L, d, m, gamma, steps, at, bad, reach, focal, np.random.default_rng(seed)


def scaled_session(rng, L, d, steps, reach, focal=False):
    """Gaussian prompt and (steps, 3, d) step q/k/v rows. The prompt Q is
    scaled as a whole, and each step's q alone, so that the largest
    |q.k| / sqrt(d) over the keys seen so far is reach. With focal, prompt
    key 0 is 100 times longer and each step's q points near it, so that
    the step's other logits lie about reach below that key's."""
    q, k, v = rng.normal(size=(3, L + steps, d))
    if focal:
        k[0] *= 100.0
        q[L:] += k[0]
    q[:L] *= reach / np.abs(q[:L] @ k[:L].T / np.sqrt(d)).max()
    for i in range(L, L + steps):
        q[i] *= reach / np.abs(k[: i + 1] @ q[i] / np.sqrt(d)).max()
    return AttentionBatch(q[:L], k[:L], v[:L]), np.stack([q, k, v], axis=1)[L:]


def _snapshot(state):
    return (state.rows, state.generated, state.dots, state.cache[:, : state.rows].copy())


def _assert_rejected_without_change(state, d, bad, rng):
    which, kind = bad
    qkv = list(rng.normal(size=(3, d)))
    if kind == "width":
        qkv[which] = np.zeros(d + 1)
    else:
        qkv[which][rng.integers(d)] = np.nan
    before = _snapshot(state)
    with pytest.raises(InvalidInputError):
        decode_step(state, *qkv)
    after = _snapshot(state)
    assert after[:3] == before[:3]
    np.testing.assert_array_equal(after[3], before[3])


@given(decode_sessions())
def test_decode_session_matches_oracle_and_keeps_its_invariants(case):
    L, d, m, gamma, steps, at, bad, reach, focal, rng = case
    batch, inputs = scaled_session(rng, L, d, steps, reach, focal)
    _, state = prefill(batch, m, gamma)
    session = NaiveDecodeSession.from_prefill(batch, compute_partition(batch, m, gamma))
    for step in range(steps + 1):
        if step == at:
            _assert_rejected_without_change(state, d, bad, rng)
        if step == steps:
            break
        rows_before = state.rows
        q, k, v = inputs[step]
        got, state = decode_step(state, q, k, v)
        np.testing.assert_allclose(got, session.step(q, k, v), rtol=0, atol=1e-12)
        assert session.columns_log[-1] == rows_before + 1
        tokens = state.focal_rows + m * state.group_rows + state.tail_rows
        assert tokens == state.total_tokens == L + step + 1
        assert state.tail_rows < regroup_threshold(m)


def pinned_step(state, q, k, v):
    """decode_step's arithmetic on valid input, copied here so that a rewrite
    must keep its bits. Returns the output and, at a regroup, how far the
    members' max logit lies below the step's."""
    d, rows, m = state.cache.shape[2], state.rows, state.m
    if rows == state.cache.shape[1]:
        state.cache = np.concatenate([state.cache, np.empty((2, rows, d))], axis=1)
    cache = state.cache
    cache[:, rows] = k, v
    rows += 1
    state.generated += 1
    e = (q * (1.0 / math.sqrt(d))) @ cache[0, :rows].T
    state.dots += rows
    g, gap = state.focal_rows + state.group_rows, None
    if rows - g >= regroup_threshold(m):
        w = e[None, g : g + m] - e[g : g + m].max()
        np.exp(w, out=w)
        gap = e.max() - e[g : g + m].max()
    e -= e.max()
    np.exp(e, out=e)
    out = e @ cache[1, :rows] / e.sum()
    if gap is not None:
        cache[:, g] = (w @ cache[:, g : g + m])[..., 0, :] / w.sum(axis=-1)
        cache[:, g + 1 : rows - m + 1] = cache[:, g + m : rows]
        state.group_rows += 1
        rows -= m - 1
    state.rows = rows
    return out, gap


@pytest.mark.parametrize("reach, focal", [(1.0, False), (1000.0, False), (1000.0, True)])
def test_decode_session_keeps_its_pinned_bits(reach, focal):
    """300 steps at m = 4 give pinned_step's outputs, live cache rows and dots
    with ==. With focal, every regroup's members sit 800 or more below the
    step's max logit, where the step's own weights for them underflow to 0."""
    batch, steps = scaled_session(np.random.default_rng(27), 40, 8, 300, reach, focal)
    _, state = prefill(batch, 4, 0.1)
    pinned, gaps = copy.deepcopy(state), []
    for q, k, v in steps:
        got, state = decode_step(state, q, k, v)
        want, gap = pinned_step(pinned, q, k, v)
        assert (got == want).all()
        gaps += [gap] if gap is not None else []
    assert (state.rows, state.group_rows, state.dots) == (pinned.rows, pinned.group_rows,
                                                         pinned.dots)
    assert (state.cache[:, : state.rows] == pinned.cache[:, : pinned.rows]).all()
    assert len(gaps) > 50 and (min(gaps) >= 800) == focal
