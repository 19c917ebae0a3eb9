"""The causal tile loop and the grouped attend spread over worker threads:
the split, the runner's one queue, costliest tile first, and each thread's
scratch, bit-identical outputs at every worker count, concurrent callers and
a failing tile or visit on the calling thread or on a worker."""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from batches import planted_batch, random_batch, scaled_batch
from dgalab import attention, dga
from dgalab.attention import _causal_tiles, _run_shares, causal_attention
from dgalab.decode import prefill
from dgalab.dga import (
    SampleSpec,
    approx_importance_scores,
    compute_partition,
    dga_attention_with_partition,
    importance_scores_exact,
)
from dgalab.rng import RngStream


def _set_workers(monkeypatch, workers, share_logits=1):
    monkeypatch.setattr(attention.os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    monkeypatch.setattr(attention, "_SHARE_LOGITS", share_logits)


# Ties (12, 12) and more tiles than the most threads, so every thread pops one.
LOGITS = np.array([7, 3, 12, 1, 9, 12, 4, 5, 2, 8])


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_runner_hands_each_tile_its_own_share_buffer(monkeypatch, workers):
    """Each of `workers` threads pops its tiles costliest first; tile t gets
    exactly logits[t] floats of scratch, every tile of a thread starts at the
    thread's one buffer, and the buffers of two threads never overlap. Each
    thread's first tile waits until every thread holds one."""
    _set_workers(monkeypatch, workers)
    ran, thread, started = [], threading.local(), threading.Barrier(workers, timeout=10)

    def run_tile(t, buf):
        if not hasattr(thread, "waited"):
            thread.waited = started.wait()
        ran.append((threading.get_ident(), t, buf))

    _run_shares(LOGITS, run_tile)
    assert sorted(t for _, t, _ in ran) == list(range(LOGITS.size))
    assert all(buf.shape == (LOGITS[t],) and buf.dtype == np.float64 for _, t, buf in ran)
    threads = {who: [(t, buf) for w, t, buf in ran if w == who] for who, _, _ in ran}
    assert len(threads) == workers
    for i, tiles in enumerate(threads.values()):
        costs = [LOGITS[t] for t, _ in tiles]
        assert costs == sorted(costs, reverse=True), costs
        assert len({buf.__array_interface__["data"][0] for _, buf in tiles}) == 1
        for other in list(threads.values())[i + 1 :]:
            assert not any(np.shares_memory(buf, b) for _, buf in tiles for _, b in other)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_runner_runs_every_tile_once_under_fast_thread_switches(monkeypatch, workers):
    _set_workers(monkeypatch, workers)
    logits = np.random.default_rng(workers).integers(1, 50, size=300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            ran = []
            _run_shares(logits, lambda t, buf: ran.append(t))
            assert sorted(ran) == list(range(logits.size))
    finally:
        sys.setswitchinterval(interval)


def test_a_held_tile_leaves_the_rest_of_the_queue_to_the_other_thread(monkeypatch):
    """The calling thread's first tile waits until every tile has run, which
    only a worker that pops all the others can bring about."""
    _set_workers(monkeypatch, 2)
    caller, ran, done = threading.get_ident(), [], threading.Event()

    def run_tile(t, buf):
        ran.append(t)
        if len(ran) == LOGITS.size:
            done.set()
        if threading.get_ident() == caller:
            assert done.wait(10), ran

    _run_shares(LOGITS, run_tile)
    assert sorted(ran) == list(range(LOGITS.size))


def test_tile_loops_compute_their_logits_in_the_runner_buffers(monkeypatch):
    """The causal loop (exact attention, exact and sampled scores) and the
    grouped attend write every tile's logits into the scratch _run_shares
    handed that tile."""
    _set_workers(monkeypatch, 2)
    real_run, real_tile, bufs, tiles = attention._run_shares, attention._tile, [], []

    def run_spy(logits, run_tile):
        def tile_spy(t, buf):
            assert buf.size == logits[t]
            bufs.append(buf)
            run_tile(t, buf)

        real_run(logits, tile_spy)

    def tile_spy(q, blocks, rows=None, *args, **kwargs):
        e, sums = real_tile(q, blocks, rows, *args, **kwargs)
        if rows is not None:
            tiles.append(e)
        return e, sums

    batch = random_batch(np.random.default_rng(1), 300, 4)
    part = compute_partition(batch, 4, 0.1)
    for module in (attention, dga):
        monkeypatch.setattr(module, "_run_shares", run_spy)
        monkeypatch.setattr(module, "_tile", tile_spy)
    causal_attention(batch)
    importance_scores_exact(batch)
    approx_importance_scores(batch, SampleSpec(40, 200), RngStream(3))
    dga_attention_with_partition(batch, part)
    assert len(tiles) == len(bufs) == 3 + 3 + 2 + 5  # 128-row tiles, then 64-row
    assert all(any(np.shares_memory(e, buf) for buf in bufs) for e in tiles)


def _spy_workers(monkeypatch):
    """The threads of each runner call: its pool's max_workers plus the
    calling thread, or 1 when it makes no pool."""
    real_run, workers = attention._run_shares, []

    def run_spy(logits, run_tile):
        workers.append(1)
        real_run(logits, run_tile)

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers[-1] += max_workers
            super().__init__(max_workers)

    monkeypatch.setattr(attention, "ThreadPoolExecutor", Pool)
    for module in (attention, dga):
        monkeypatch.setattr(module, "_run_shares", run_spy)
    return workers


def _spy_threads(monkeypatch, module, fail=None):
    """The threads that run module._tile's masked tiles. While a runner's pool
    is open, each thread's first such tile waits (10 s at most) until one has
    started on the other side, the calling thread or a worker, so a split loop
    runs on both sides whichever is quicker. fail ("caller" or "worker") makes
    that side's first tile raise once both sides have started."""
    real_tile, caller, threads, pool = module._tile, threading.get_ident(), set(), [None]

    class Pool(ThreadPoolExecutor):
        def __enter__(self):
            pool[0] = {"seen": set(), "caller": threading.Event(), "worker": threading.Event()}
            return super().__enter__()

        def __exit__(self, *exc):
            pool[0] = None
            return super().__exit__(*exc)

    def spy(q, blocks, rows=None, *args, **kwargs):
        me, sides = threading.get_ident(), pool[0]
        if rows is not None:
            threads.add(me)
            if sides is not None and me not in sides["seen"]:
                sides["seen"].add(me)
                side = "caller" if me == caller else "worker"
                sides[side].set()
                sides["worker" if side == "caller" else "caller"].wait(10)
                if side == fail:
                    raise RuntimeError(f"first tile on the {side}")
        return real_tile(q, blocks, rows, *args, **kwargs)

    monkeypatch.setattr(attention, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(module, "_tile", spy)
    return threads


def test_runner_starts_no_more_threads_than_tiles(monkeypatch):
    _set_workers(monkeypatch, 8)
    workers = _spy_workers(monkeypatch)
    for tiles in (1, 3, 8, 20):
        attention._run_shares(np.full(tiles, 5), lambda t, buf: None)
    assert workers == [1, 3, 8, 8]


# 2 * _SHARE_LOGITS = 262144 logits: 245760 at L = 640 (5 full tiles),
# 245760 + 24 * 664 at L = 664 and 245760 + 25 * 665 at L = 665.
@pytest.mark.parametrize("L, want", [(1, 1), (384, 1), (640, 1), (664, 1), (665, 2), (5000, 8)])
def test_loops_of_few_tiles_run_on_the_calling_thread(monkeypatch, L, want):
    _set_workers(monkeypatch, 8, attention._SHARE_LOGITS)
    workers = _spy_workers(monkeypatch)
    causal_attention(random_batch(np.random.default_rng(0), L, 2))
    assert workers == [want]


@pytest.mark.parametrize("batch", [random_batch, planted_batch])
def test_attend_runs_on_the_calling_thread_at_L_1024_and_splits_at_2048(monkeypatch, batch):
    """The benchmark's probe sizes: m = 16, gamma = 0.1, d = 64."""
    _set_workers(monkeypatch, 8, attention._SHARE_LOGITS)
    workers = _spy_workers(monkeypatch)
    for L, split in ((1024, False), (2048, True)):
        b = batch(np.random.default_rng(L), L, 64)
        part = compute_partition(b, 16, 0.1, SampleSpec(16, 16), RngStream(L))
        workers.clear()
        dga_attention_with_partition(b, part)
        assert len(workers) == 1 and (workers[0] > 1) == split, (L, workers)


@pytest.mark.parametrize("sampled", [False, True])
def test_causal_tiles_visit_each_tile_once_and_return_in_tile_order(monkeypatch, sampled):
    L = 600
    batch = random_batch(np.random.default_rng(L), L, 4)
    positions = SampleSpec(40, 200).positions(L, RngStream(L)) if sampled else np.arange(L)
    starts = list(positions[::attention._ROW_BLOCK])
    for workers in (1, 2, 3, 5):
        _set_workers(monkeypatch, workers)
        visits = []

        def visit(rows, e, sums):
            visits.append(rows[0])
            assert e.shape == (rows.size, rows[-1] + 1) and sums.shape == (rows.size,)
            return rows[0]

        assert _causal_tiles(batch, positions, visit) == starts, workers
        assert sorted(visits) == starts, workers


def pinned_causal_attention(batch):
    """causal_attention's arithmetic, copied here so that a rewrite must keep
    its bits: 128-row tiles of a zeroed weight matrix, scaled queries, the band
    above the diagonal at -inf, the row max subtracted, exp, rows divided by
    their sums, then times V[:end]."""
    L, d = batch.q.shape
    out, weights = np.empty_like(batch.q), np.zeros((L, L))
    for start in range(0, L, 128):
        end = min(start + 128, L)
        e = weights[start:end, :end]
        np.matmul(batch.q[start:end] * (1.0 / math.sqrt(d)), batch.k[:end].T, out=e)
        band = np.arange(start + 1, end) > np.arange(start, end)[:, None]
        np.copyto(e[:, start + 1 :], -np.inf, where=band)
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=-1)[:, None]
        out[start:end] = e @ batch.v[:end]
    return out, weights


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("reach", [1.0, 1000.0])
@pytest.mark.parametrize("L", [1, 127, 128, 129, 300, 700])
def test_causal_attention_keeps_its_pinned_bits(monkeypatch, L, reach, workers):
    """out and weights equal pinned_causal_attention's with ==, with the
    largest |logit| at reach, on one thread and split over three."""
    _set_workers(monkeypatch, workers)
    batch = scaled_batch(L + int(reach), L, 8, reach)
    want_out, want_weights = pinned_causal_attention(batch)
    out, weights = causal_attention(batch)
    assert out.shape == want_out.shape and (out == want_out).all()
    assert weights.shape == want_weights.shape and (weights == want_weights).all()
    assert (weights[np.triu_indices(L, k=1)] == 0.0).all()


def _outputs(L):
    batch = random_batch(np.random.default_rng(L), L, 8)
    out, weights = causal_attention(batch)
    got = {"out": out, "weights": weights, "exact": importance_scores_exact(batch)}
    if L >= 240:
        got["sampled"] = approx_importance_scores(batch, SampleSpec(40, 200), RngStream(L))
    return got


@pytest.mark.parametrize("L", [129, 300, 600, 1000])
def test_outputs_are_bit_identical_at_every_worker_count(monkeypatch, L):
    _set_workers(monkeypatch, 1)
    want = _outputs(L)
    threads = _spy_threads(monkeypatch, attention)
    for workers in (1, 2, 3, 5):
        _set_workers(monkeypatch, workers)
        threads.clear()
        got = _outputs(L)
        for name in want:
            assert np.array_equal(got[name], want[name]), (workers, name)
        assert len(threads) == 1 if workers == 1 else len(threads) >= 2


def _prefill_outputs(batch):
    out, state = prefill(batch, 16, 0.1)
    return {"prefill": out, "cache": state.cache[:, : state.rows], "dots": state.dots,
            "rows": (state.focal_rows, state.group_rows),
            "attend": dga_attention_with_partition(batch, compute_partition(batch, 8, 0.2))}


@pytest.mark.parametrize("L", [1000, 2048, 4096])
@pytest.mark.parametrize("batch", [random_batch, planted_batch])
def test_attend_and_prefill_are_bit_identical_at_every_worker_count(monkeypatch, L, batch):
    b = batch(np.random.default_rng(L), L, 64)
    _set_workers(monkeypatch, 1)
    want = _prefill_outputs(b)
    threads = _spy_threads(monkeypatch, dga)
    for workers in (1, 2, 3, 5):
        _set_workers(monkeypatch, workers)
        threads.clear()
        got = _prefill_outputs(b)
        for name in want:
            assert np.array_equal(got[name], want[name]), (workers, name)
        assert len(threads) == 1 if workers == 1 else len(threads) >= 2


def test_concurrent_callers_share_no_buffer(monkeypatch):
    _set_workers(monkeypatch, 3)
    batches = [random_batch(np.random.default_rng(seed), 300, 16) for seed in range(4)]
    parts = [compute_partition(b, 4, 0.1) for b in batches]

    def outputs(i):
        b = batches[i]
        return (*causal_attention(b), importance_scores_exact(b),
                dga_attention_with_partition(b, parts[i]))

    want = [outputs(i) for i in range(len(batches))]
    got = [None] * len(batches)

    def run(i):
        for _ in range(5):
            got[i] = outputs(i)
            if not all(np.array_equal(g, w) for g, w in zip(got[i], want[i])):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(batches))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for g, w in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))


@pytest.mark.parametrize("L", [256, 300])  # 2 and 3 causal tiles
def test_failing_tile_raises_and_leaves_no_thread(monkeypatch, L):
    _set_workers(monkeypatch, 2)
    batch = random_batch(np.random.default_rng(0), L, 4)
    before = threading.active_count()
    for side in ("caller", "worker"):
        with pytest.MonkeyPatch.context() as mp:
            _spy_threads(mp, attention, fail=side)
            with pytest.raises(RuntimeError, match=f"first tile on the {side}"):
                causal_attention(batch)
        assert threading.active_count() == before


@pytest.mark.parametrize("L", [256, 300])  # 2 and 3 causal tiles
def test_failing_visit_raises_and_leaves_no_thread(monkeypatch, L):
    _set_workers(monkeypatch, 2)
    _spy_threads(monkeypatch, attention)
    batch, caller = random_batch(np.random.default_rng(0), L, 4), threading.get_ident()
    before = threading.active_count()
    for side in ("caller", "worker"):
        def visit(rows, e, sums):
            if (threading.get_ident() == caller) == (side == "caller"):
                raise RuntimeError(f"visit on the {side}")

        with pytest.raises(RuntimeError, match=f"visit on the {side}"):
            _causal_tiles(batch, np.arange(L), visit)
        assert threading.active_count() == before


@pytest.mark.parametrize("side", ["caller", "worker"])
def test_failing_attend_tile_raises_and_leaves_no_thread(monkeypatch, side):
    _set_workers(monkeypatch, 2)
    batch = random_batch(np.random.default_rng(0), 256, 4)
    part = compute_partition(batch, 4, 0.1)
    _spy_threads(monkeypatch, dga, fail=side)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"first tile on the {side}"):
        dga_attention_with_partition(batch, part)
    assert threading.active_count() == before


def test_a_failing_tile_stops_the_queue(monkeypatch):
    """The worker's first tile raises while the caller holds its own first
    tile; once it has raised, at most one more tile starts (one the caller
    may pop before the queue is cleared), not every tile left."""
    _set_workers(monkeypatch, 2)
    caller, failed, after = threading.get_ident(), threading.Event(), []

    def run_tile(t, buf):
        if failed.is_set():
            after.append(t)
            time.sleep(0.05)  # the failing thread may still be clearing the queue
        elif threading.get_ident() == caller:
            assert failed.wait(10)
        else:
            failed.set()
            raise RuntimeError("first tile on the worker")

    with pytest.raises(RuntimeError, match="first tile on the worker"):
        _run_shares(LOGITS, run_tile)
    assert len(after) <= 1, after
