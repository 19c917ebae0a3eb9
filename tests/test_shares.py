"""The causal tile loop and the grouped attend spread over worker threads:
the split, the runner's scratch, its contract, bit-identical outputs at
every worker count, concurrent callers and a failing tile or visit."""

import sys
import threading

import numpy as np
import pytest

from batches import planted_batch, random_batch
from dgalab import attention, dga
from dgalab.attention import _causal_tiles, _run_shares, _shares, causal_attention
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


def test_shares_cover_every_tile_once_and_balance_tile_ends():
    for tiles in range(1, 41):
        for workers in range(1, 9):
            shares = _shares(tiles, workers)
            assert sorted(t for share in shares for t in share) == list(range(tiles))
            assert len(shares) == min(workers, tiles) and all(shares)
            assert all(share == sorted(share) for share in shares)
            # Tile t's cost grows with its end row, t + 1 in tile units.
            work = [sum(t + 1 for t in share) for share in shares]
            assert max(work) - min(work) <= tiles, (tiles, workers, shares)


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_runner_hands_each_tile_its_own_share_buffer(monkeypatch, workers):
    """Tile t gets exactly logits[t] floats of scratch, every tile of a share
    starts at its share's one buffer, and the buffers of two shares never
    overlap."""
    _set_workers(monkeypatch, workers)
    logits = np.array([7, 3, 12, 1, 9, 12, 4, 5, 2, 8])
    bufs = {}

    def run_tile(t, buf):
        bufs[t] = buf

    _run_shares(logits, run_tile)
    assert sorted(bufs) == list(range(logits.size))
    assert all(bufs[t].shape == (logits[t],) and bufs[t].dtype == np.float64 for t in bufs)
    shares = _shares(logits.size, workers)
    assert len(shares) == workers
    start = {t: bufs[t].__array_interface__["data"][0] for t in bufs}
    for i, share in enumerate(shares):
        assert {start[t] for t in share} == {start[share[0]]}
        for other in shares[i + 1 :]:
            assert not any(np.shares_memory(bufs[t], bufs[u]) for t in share for u in other)


def test_tile_loops_compute_their_logits_in_the_runner_buffers(monkeypatch):
    """The causal loop (exact and sampled rows) and the grouped attend write
    every tile's logits into the scratch _run_shares handed that tile."""
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
    importance_scores_exact(batch)
    approx_importance_scores(batch, SampleSpec(40, 200), RngStream(3))
    dga_attention_with_partition(batch, part)
    assert len(tiles) == len(bufs) == 3 + 2 + 5  # 128-row, 128-row and 64-row tiles
    assert all(any(np.shares_memory(e, buf) for buf in bufs) for e in tiles)


def _spy_workers(monkeypatch):
    """The worker counts that _shares is asked for, one per split loop."""
    real_shares, workers = attention._shares, []

    def spy(tiles, w):
        workers.append(w)
        return real_shares(tiles, w)

    monkeypatch.setattr(attention, "_shares", spy)
    return workers


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
    for L, split in ((1024, False), (2048, True)):
        b = batch(np.random.default_rng(L), L, 64)
        part = compute_partition(b, 16, 0.1, SampleSpec(16, 16), RngStream(L))
        workers = _spy_workers(monkeypatch)
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
    real_tile, threads = attention._tile, set()

    def spy(*args, **kwargs):
        threads.add(threading.get_ident())
        return real_tile(*args, **kwargs)

    monkeypatch.setattr(attention, "_tile", spy)
    for workers in (1, 2, 3, 5):
        _set_workers(monkeypatch, workers)
        threads.clear()
        got = _outputs(L)
        for name in want:
            assert np.array_equal(got[name], want[name]), (workers, name)
        # One share runs on the calling thread alone; more shares add at
        # least one pool thread, which may take several shares.
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
    real_tile, threads = dga._tile, set()

    def spy(q, blocks, rows=None, *args, **kwargs):
        if rows is not None:
            threads.add(threading.get_ident())
        return real_tile(q, blocks, rows, *args, **kwargs)

    monkeypatch.setattr(dga, "_tile", spy)
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


@pytest.mark.parametrize("L", [256, 300])  # tile 1 on the calling thread, then on a worker
def test_failing_tile_raises_and_leaves_no_thread(monkeypatch, L):
    _set_workers(monkeypatch, 2)
    real_tile = attention._tile

    def failing(q, blocks, rows=None, *args, **kwargs):
        if rows is not None and rows[0] == 128:
            raise RuntimeError("tile at row 128")
        return real_tile(q, blocks, rows, *args, **kwargs)

    monkeypatch.setattr(attention, "_tile", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="tile at row 128"):
        causal_attention(random_batch(np.random.default_rng(0), L, 4))
    assert threading.active_count() == before


@pytest.mark.parametrize("L", [256, 300])  # tile 1 on the calling thread, then on a worker
def test_failing_visit_raises_and_leaves_no_thread(monkeypatch, L):
    _set_workers(monkeypatch, 2)

    def visit(rows, e, sums):
        if rows[0] == 128:
            raise RuntimeError("visit at row 128")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="visit at row 128"):
        _causal_tiles(random_batch(np.random.default_rng(0), L, 4), np.arange(L), visit)
    assert threading.active_count() == before


@pytest.mark.parametrize("row", [64, 192])  # tile 1 on a worker, tile 3 on the calling thread
def test_failing_attend_tile_raises_and_leaves_no_thread(monkeypatch, row):
    _set_workers(monkeypatch, 2)
    batch = random_batch(np.random.default_rng(0), 256, 4)
    part = compute_partition(batch, 4, 0.1)
    real_tile = dga._tile

    def failing(q, blocks, rows=None, *args, **kwargs):
        if rows is not None and rows[0] == row:
            raise RuntimeError(f"tile at row {row}")
        return real_tile(q, blocks, rows, *args, **kwargs)

    monkeypatch.setattr(dga, "_tile", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"tile at row {row}"):
        dga_attention_with_partition(batch, part)
    assert threading.active_count() == before
