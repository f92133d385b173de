"""Unit tests for the scratch arena (repro.runtime.pool): a stack of
slabs per worker, taken by depth."""

import ctypes
import math
import mmap

import numpy as np
import pytest

from repro.runtime import pool as pool_module
from repro.runtime.pool import BufferPool, Slab, Worker, current, get_pool


def _address(arr):
    return arr.ctypes.data


def _libc_mincore():
    try:
        mincore = ctypes.CDLL(None).mincore
    except (AttributeError, OSError, TypeError):
        return None
    mincore.argtypes = (ctypes.c_void_p, ctypes.c_size_t,
                        ctypes.POINTER(ctypes.c_ubyte))
    mincore.restype = ctypes.c_int
    return mincore


_MINCORE = _libc_mincore()

#: where there is a ``madvise`` the arena gives pages back
HAS_MADVISE = hasattr(mmap, "MADV_DONTNEED")

#: what the page checks need: ``mincore`` to look, and pages given back
needs_mincore = pytest.mark.skipif(
    _MINCORE is None or not HAS_MADVISE,
    reason="no mincore or no madvise on this platform",
)


def resident_pages(array) -> int:
    """How many of the whole pages strictly inside ``array``'s bytes
    are in memory (``mincore``)."""
    page = mmap.PAGESIZE
    start = _address(array)
    first = -(-start // page) * page
    end = (start + array.nbytes) // page * page
    if end <= first:
        return 0
    vec = (ctypes.c_ubyte * ((end - first) // page))()
    assert _MINCORE(first, end - first, vec) == 0
    return sum(v & 1 for v in vec)


def _take(worker, nbytes):
    """A take that ends at once: what a caller does in its ``finally``."""
    slab = worker.take(nbytes)
    worker.depth -= 1
    return slab


def test_checkout_release_roundtrip_reuses_buffer():
    pool = BufferPool()
    worker = Worker(pool)
    where = _address(_take(worker, 96).data)
    assert _address(_take(worker, 96).data) == where
    assert worker.depth == 0
    stats = pool.stats()
    assert (stats["checkouts"], stats["allocations"]) == (2, 1)


def test_live_buffers_never_alias():
    """Nested takes sit at two depths, two workers hold two stacks: no
    two live takes share a byte, and each comes back to its home."""
    pool = BufferPool()
    worker, other = Worker(pool), Worker(pool)
    outer = worker.take(512)
    inner = worker.take(512)
    theirs = other.take(512)
    assert worker.depth == 2 and other.depth == 1
    slabs = (outer, inner, theirs)
    for i, a in enumerate(slabs):
        a.data[:] = i + 1
        for b in slabs[i + 1:]:
            assert not np.shares_memory(a.data, b.data)
    assert [int(s.data[0]) for s in slabs] == [1, 2, 3]
    worker.depth -= 2
    other.depth -= 1
    # taken again, each depth serves its own slab
    assert worker.take(512) is outer and worker.take(512) is inner
    worker.depth -= 2
    assert pool.stats()["allocations"] == 3


def test_the_slab_at_a_depth_serves_any_shape_and_dtype():
    """Nothing is keyed on shape: a depth's slab serves whatever fits it,
    in any shape and dtype; a take it cannot hold replaces it by a
    larger one instead of adding a second."""
    pool = BufferPool()
    worker = Worker(pool)
    home = _address(_take(worker, 128).data)
    for shape, dtype in (((2, 8), np.float64), ((4, 8), np.float32),
                         ((128,), np.bool_)):
        slab = worker.take(math.prod(shape) * np.dtype(dtype).itemsize)
        buf = slab.view(shape, dtype)
        assert (buf.shape, buf.dtype) == (shape, np.dtype(dtype))
        assert _address(buf) == home
        worker.depth -= 1
    grown = _take(worker, 129)
    assert grown.capacity == 192 and worker.slabs == [grown]
    stats = pool.stats()
    assert stats["allocations"] == 2 and stats["peak_slabs"] == 1


def test_every_checkout_starts_on_a_cache_line():
    worker = Worker(BufferPool())
    for nbytes in (1, 63, 64, 65, 4096, 100_001):
        slab = _take(worker, nbytes)
        assert isinstance(slab, Slab)
        assert slab.data.dtype == np.uint8 and slab.data.flags.c_contiguous
        assert slab.capacity >= nbytes and slab.capacity % 64 == 0
        assert _address(slab.data) % 64 == 0
    assert _address(_take(worker, 120).view((3, 5), np.float64)) % 64 == 0


def test_high_water_and_byte_accounting():
    """Bytes are slab capacity, whole cache lines; the high water is what
    all workers held at once, not what was ever allocated."""
    pool = BufferPool()
    worker, other = Worker(pool), Worker(pool)
    nbytes = 4 * 4 * 8
    worker.take(nbytes)
    other.take(nbytes)
    stats = pool.stats()
    assert (stats["live_bytes"], stats["idle_bytes"]) == (2 * nbytes, 0)
    assert stats["high_water_bytes"] == 2 * nbytes
    worker.depth -= 1
    other.depth -= 1
    stats = pool.stats()
    assert (stats["live_bytes"], stats["idle_bytes"]) == (0, 2 * nbytes)
    _take(worker, 3)  # fits: no new byte
    stats = pool.stats()
    assert stats["checkouts"] == 3
    assert stats["allocations"] == 2
    assert stats["high_water_bytes"] == 2 * nbytes
    assert stats["peak_slabs"] == 2
    assert stats["largest_slab_bytes"] == nbytes
    # a growth drops the slab it replaces: the high water is the sum of
    # what is held, 128 + 256, not 128 + 128 + 256
    _take(worker, 200)
    stats = pool.stats()
    assert stats["high_water_bytes"] == nbytes + 256
    assert stats["allocated_bytes"] == 2 * nbytes + 256
    assert stats["peak_slabs"] == 2
    # a worker that is gone holds nothing
    del other
    assert pool.stats()["idle_bytes"] == 256


@needs_mincore
def test_trim_gives_back_the_pages_of_idle_slabs_only():
    """A live take keeps every byte through a trim; a slab above the
    worker's depth keeps no page, and is counted in ``released_bytes``."""
    pool = BufferPool()
    worker = Worker(pool)
    live = worker.take(1 << 20)
    idle = _take(worker, 1 << 20)  # depth 1, given back
    live.data[:] = 7
    idle.data[:] = 9
    pages, live_pages = resident_pages(idle.data), resident_pages(live.data)
    assert pages > 0 and live_pages > 0
    released = pool.trim(workers=[worker])
    assert released == pages * mmap.PAGESIZE
    assert resident_pages(idle.data) == 0
    assert resident_pages(live.data) == live_pages
    assert (live.data == 7).all()
    assert pool.stats()["released_bytes"] == released
    worker.depth -= 1


@needs_mincore
def test_a_trimmed_slab_is_the_same_slab_at_the_same_address():
    """Nothing is re-allocated: the next take gets the very ``Slab``
    back, at its address, its whole pages faulted in zero-filled."""
    pool = BufferPool()
    worker = Worker(pool)
    slab = _take(worker, 256 << 10)
    where = _address(slab.data)
    slab.data[:] = 1
    pool.trim(workers=[worker])
    again = _take(worker, 256 << 10)
    assert again is slab and _address(again.data) == where
    assert pool.stats()["allocations"] == 1
    page = mmap.PAGESIZE
    inside = slab.data[-where % page:]
    inside = inside[:inside.nbytes // page * page]
    assert inside.nbytes > 0 and not inside.any()


def test_trim_gives_back_the_pages_of_the_callers_arrays():
    """The arrays a caller hands ``trim`` stay allocated where they are;
    a non-contiguous view is refused (its span is not its bytes)."""
    pool = BufferPool()
    array = np.ones(1 << 17)
    where = _address(array)
    released = pool.trim(array)
    assert _address(array) == where
    if HAS_MADVISE:
        assert released > 0
    # what was given back reads zeros, the rest is as it was
    assert (array == 0).sum() * array.itemsize == released
    assert pool.stats()["released_bytes"] == released
    with pytest.raises(ValueError, match="contiguous"):
        pool.trim(array[::2])


def test_process_pool_is_shared():
    """One arena a process; one worker a thread, until an executor slot
    is bound in its place."""
    import threading

    assert get_pool() is get_pool()
    mine = current()
    assert current() is mine and mine.arena is get_pool()
    theirs = []
    thread = threading.Thread(target=lambda: theirs.append(current()))
    thread.start()
    thread.join()
    assert theirs[0] is not mine
    slot = Worker(get_pool())
    assert pool_module.bind(slot) is mine
    try:
        assert current() is slot
    finally:
        assert pool_module.bind(mine) is slot


# ---------------------------------------------------------------------------
# slabs: what a compiled program takes, once per call
# ---------------------------------------------------------------------------


def test_checkout_slab_is_the_same_arena_as_checkout():
    """A shaped take (the seam rotation's strip, the guard's mask) and a
    program's take at one depth are the same slab."""
    worker = Worker(BufferPool())
    where = _address(_take(worker, 4 * 3 * 8).view((4, 3), np.float64))
    assert _address(_take(worker, 4 * 3 * 8).data) == where
    assert worker.arena.stats()["allocations"] == 1


def test_counters_count_checkouts_in_slab_capacity():
    """One take is one slab, however many values its caller lays out
    inside; bytes are the slab's, not the request's."""
    pool = BufferPool()
    worker = Worker(pool)
    slab = worker.take(1000)
    stats = pool.stats()
    assert (stats["checkouts"], stats["allocations"]) == (1, 1)
    assert stats["live_bytes"] == stats["high_water_bytes"] == 1024
    worker.depth -= 1
    again = worker.take(10)  # fits: the same slab, whole
    assert again is slab
    stats = pool.stats()
    assert (stats["checkouts"], stats["allocations"]) == (2, 1)
    assert stats["idle_bytes"] == 0 and stats["live_bytes"] == 1024
    worker.depth -= 1
    assert pool.stats()["live_bytes"] == 0


def test_retire_on_miss_converges_to_one_slab_per_concurrent_caller():
    """Growing takes of one caller end in one slab, not one per size:
    a growth replaces the depth's slab. A nested caller holds a second
    depth, and its growth replaces that one only."""
    pool = BufferPool()
    worker = Worker(pool)
    for nbytes in (1000, 5000, 300, 20_000, 64, 20_000, 7000):
        _take(worker, nbytes)
    stats = pool.stats()
    assert stats["allocations"] == 3 and stats["peak_slabs"] == 1
    assert stats["idle_bytes"] == stats["high_water_bytes"] == 20_032
    # two callers at once: two slabs, and it stays two
    for _ in range(3):
        outer = worker.take(20_000)
        _take(worker, 500)
        worker.depth -= 1
    stats = pool.stats()
    assert stats["allocations"] == 4 and stats["peak_slabs"] == 2
    # the nested caller grows: its slab is replaced, the outer one kept
    assert worker.take(20_000) is outer
    _take(worker, 900)
    worker.depth -= 1
    stats = pool.stats()
    assert stats["allocations"] == 5 and stats["peak_slabs"] == 2
    assert stats["idle_bytes"] == 20_032 + 960


def test_failed_batch_returns_what_it_took():
    """A failing allocator leaves nothing taken for ever and every
    counter consistent: the depth stays where it was, the take is not
    counted, and the next take is served."""

    class Failing(BufferPool):
        budget = 1

        def _allocate(self, shape, dtype):
            if self.budget == 0:
                raise MemoryError("arena exhausted")
            self.budget -= 1
            return np.empty(shape, dtype)

    pool = Failing()
    worker = Worker(pool)
    held = worker.take(512)
    before = pool.stats()
    with pytest.raises(MemoryError):
        worker.take(512)  # depth 1 has no slab: must allocate
    assert worker.depth == 1 and pool.stats() == before
    worker.depth -= 1
    # and the worker is intact: its slab comes back out
    assert _take(worker, 512) is held
    # a growth that failed has given up the slab it was to replace
    with pytest.raises(MemoryError):
        worker.take(4096)
    stats = pool.stats()
    assert worker.depth == 0
    assert stats["live_bytes"] == stats["idle_bytes"] == 0
    assert stats["checkouts"] == 2 and stats["allocations"] == 1
    pool.budget = 1
    assert _take(worker, 4096).capacity == 4096


def test_batch_checkouts_are_poisoned_and_recorded():
    """Every take is poisoned — the bytes asked for, whatever the caller
    views them as — and consulted and counted once."""
    from repro.resilience import chaos
    from repro.resilience.chaos import ChaosPlan

    pool = BufferPool()
    worker = Worker(pool)
    plan = ChaosPlan.from_spec("pool.poison:p=1.0")
    previous = chaos.set_plan(plan)
    try:
        slab = worker.take(3 * 3 * 8 * 2)
        assert np.isnan(slab.data[:144].view(np.float64)).all()
        buf = worker.take(3 * 3 * 8).view((3, 3), np.float64)
        assert np.isnan(buf).all()
        worker.take(9).view((3, 3), np.bool_)  # a mask: poisoned too
    finally:
        chaos.set_plan(previous)
    assert plan.consults("pool.poison") == 3
    assert pool.stats()["checkouts"] == 3
    worker.depth -= 3
    assert pool.stats()["live_bytes"] == 0


def test_batches_from_many_threads_never_alias_or_lose_a_buffer(
        monkeypatch):
    """More rank threads than compute slots, under a shortened switch
    interval, hand the slots (and their scratch) to each other at every
    wait while a trimmer gives back the pages of the idle slots: no two
    live takes ever share a byte, and every counter adds up."""
    import sys
    import threading

    from repro.runtime import ranks

    pool = BufferPool()
    monkeypatch.setattr(pool_module, "_POOL", pool)
    ex = ranks.RankExecutor(4)
    n_ranks, rounds = 8, 200
    errors = []
    done = threading.Event()
    trims = 0

    def trimmer():
        # a slab it touched while a rank computes in it would read zeros
        nonlocal trims
        while not done.is_set():
            with ex.idle_scratch() as idle:
                pool.trim(workers=idle)
            trims += 1

    def body(rank):
        tag = float(rank + 1)  # no tag is 0.0: a trimmed page reads 0
        for turn in range(rounds):
            worker = current()
            nbytes = 4096 * (1 + (turn + rank) % 5) + 128
            slab = worker.take(nbytes)
            try:
                values = slab.data[:nbytes].view(np.float64)
                values.fill(tag)
                extra = worker.take(128).view((4, 4), np.float64)
                try:
                    extra.fill(tag)
                    if (values != tag).any() or (extra != tag).any():
                        errors.append(f"rank {rank} saw another's data")
                finally:
                    worker.depth -= 1
            finally:
                worker.depth -= 1
            with ranks.io_wait():  # the slot goes to another rank
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    trimming = threading.Thread(target=trimmer)
    try:
        trimming.start()
        ex.run(body, n_ranks)
    finally:
        done.set()
        trimming.join(timeout=60)
        sys.setswitchinterval(interval)
        ex.shutdown()
    assert not trimming.is_alive()
    assert errors == []
    assert trims > 0
    stats = pool.stats()
    assert stats["checkouts"] == n_ranks * rounds * 2
    assert stats["live_bytes"] == 0
    # two depths of four slots, each grown to its largest take at most
    assert stats["peak_slabs"] <= 4 * 2
    assert sum(len(w.slabs) for w in ex.scratch) == stats["peak_slabs"]
    assert [w.depth for w in ex.scratch] == [0] * 4


def test_report_footer_prints_slabs_and_the_largest_slab():
    import re

    from repro.obs.render import _footer
    from repro.runtime import runtime_summary

    _take(current(), 128)
    summary = runtime_summary()["pool"]
    # every key the footer, the benchmark's layer table and the process
    # executor's fold read
    assert set(summary) == {
        "checkouts", "allocations", "allocated_bytes", "live_bytes",
        "idle_bytes", "high_water_bytes", "peak_slabs",
        "largest_slab_bytes", "released_bytes",
    }
    (line,) = [ln for ln in _footer() if ln.startswith("pool: ")]
    for name in ("checkouts", "allocations", "allocated_bytes",
                 "high_water_bytes", "peak_slabs", "largest_slab_bytes",
                 "released_bytes"):
        assert re.search(rf"\b{name} \d+(,|$)", line), name
