"""Unit tests for the scratch buffer arena (repro.runtime.pool)."""

import numpy as np
import pytest

from repro.runtime.pool import BufferPool, Slab, get_pool


def _address(arr):
    return arr.ctypes.data


def test_checkout_release_roundtrip_reuses_buffer():
    pool = BufferPool()
    a = pool.checkout((4, 3))
    where = _address(a)
    pool.release(a)
    b = pool.checkout((4, 3))
    assert _address(b) == where
    assert pool.stats()["reuse_hits"] == 1
    assert pool.stats()["allocations"] == 1


def test_live_buffers_never_alias():
    pool = BufferPool()
    a = pool.checkout((8, 8))
    b = pool.checkout((8, 8))
    assert not np.shares_memory(a, b)
    a[...] = 1.0
    b[...] = 2.0
    assert float(a[0, 0]) == 1.0  # no shared storage
    homes = {_address(a), _address(b)}
    pool.release(a)
    pool.release(b)
    # after release both come back, still two distinct pieces of memory
    c = pool.checkout((8, 8))
    d = pool.checkout((8, 8))
    assert not np.shares_memory(c, d)
    assert {_address(c), _address(d)} == homes
    assert pool.stats()["allocations"] == 2


def test_smallest_idle_slab_that_fits_serves_any_shape_and_dtype():
    """Nothing is keyed on shape: a released slab serves whatever fits,
    and of several that fit the smallest is taken."""
    pool = BufferPool()
    small, big = pool.checkout((4, 4)), pool.checkout((16, 16))
    homes = {"small": _address(small), "big": _address(big)}
    pool.release(small)
    pool.release(big)
    # same bytes, another shape and dtype: the small slab serves both
    for shape, dtype in (((2, 8), np.float64), ((4, 8), np.float32),
                         ((128,), np.bool_)):
        buf = pool.checkout(shape, dtype)
        assert (buf.shape, buf.dtype) == (shape, np.dtype(dtype))
        assert _address(buf) == homes["small"]
        pool.release(buf)
    # one byte more than the small slab holds: best fit is the big one
    buf = pool.checkout((129,), np.bool_)
    assert _address(buf) == homes["big"]
    # and with the big one out, the small one still serves what fits
    other = pool.checkout((3,))
    assert _address(other) == homes["small"]
    stats = pool.stats()
    assert stats["allocations"] == 2 and stats["retirements"] == 0


def test_every_checkout_starts_on_a_cache_line():
    pool = BufferPool()
    for nbytes in (1, 63, 64, 65, 4096, 100_001):
        slab = pool.checkout_slab(nbytes)
        assert isinstance(slab, Slab)
        assert slab.data.dtype == np.uint8 and slab.data.flags.c_contiguous
        assert slab.capacity >= nbytes and slab.capacity % 64 == 0
        assert _address(slab.data) % 64 == 0
    assert _address(pool.checkout((3, 5))) % 64 == 0


def test_double_release_raises():
    pool = BufferPool()
    a = pool.checkout((2, 2))
    pool.release(a)
    with pytest.raises(ValueError, match="released twice"):
        pool.release(a)
    slab = pool.checkout_slab(100)
    pool.release(slab)
    with pytest.raises(ValueError, match="released twice"):
        pool.release(slab)
    assert pool.stats()["live_bytes"] == 0


def test_releasing_a_view_raises():
    pool = BufferPool()
    a = pool.checkout((4, 4))
    with pytest.raises(ValueError, match="view"):
        pool.release(a[:2])
    with pytest.raises(ValueError, match="view"):
        pool.release(a.reshape(16))  # same bytes, not the checkout
    pool.release(a)


def test_foreign_release_raises():
    """What this arena did not hand out never enters it: not a fresh
    array, not another arena's checkout, not a slab's bytes."""
    pool, other = BufferPool(), BufferPool()
    with pytest.raises(ValueError, match="never handed out"):
        pool.release(np.empty((4, 4)))
    theirs = other.checkout((4, 4))
    with pytest.raises(ValueError, match="never handed out"):
        pool.release(theirs)
    other.release(theirs)
    slab = pool.checkout_slab(256)
    with pytest.raises(ValueError, match="never handed out"):
        pool.release(slab.data)
    pool.release(slab)
    stats = pool.stats()
    assert stats["live_bytes"] == 0 and stats["idle_bytes"] == slab.capacity


def test_high_water_and_byte_accounting():
    pool = BufferPool()
    nbytes = 4 * 4 * 8
    a = pool.checkout((4, 4))
    b = pool.checkout((4, 4))
    assert pool.live_bytes == 2 * nbytes
    assert pool.stats()["high_water_bytes"] == 2 * nbytes
    pool.release(a)
    pool.release(b)
    assert pool.live_bytes == 0
    assert pool.idle_bytes == 2 * nbytes
    c = pool.checkout((4, 4))
    assert pool.stats()["alloc_bytes_avoided"] == nbytes
    stats = pool.stats()
    assert stats["checkouts"] == 3
    assert stats["allocations"] == 2
    assert stats["high_water_bytes"] == 2 * nbytes
    assert stats["peak_slabs"] == 2
    assert stats["largest_slab_bytes"] == nbytes
    pool.release(c)
    # the accounting is in slab capacity, whole cache lines
    d = pool.checkout((3,), np.bool_)
    assert pool.live_bytes == 128
    pool.release(d)


def test_recycling_disabled_still_accounts():
    pool = BufferPool(recycle=False)
    a = pool.checkout((4, 4))
    pool.release(a)
    assert pool.idle_bytes == 0  # a released slab is dropped, not kept
    b = pool.checkout((4, 4))
    assert b is not a
    assert pool.stats()["reuse_hits"] == 0
    assert pool.stats()["allocations"] == 2
    assert pool.stats()["high_water_bytes"] == a.nbytes


def test_clear_drops_idle_buffers():
    pool = BufferPool()
    a = pool.checkout((4, 4))
    pool.release(a)
    pool.clear()
    assert pool.idle_bytes == 0
    pool.checkout((4, 4))
    stats = pool.stats()
    assert stats["allocations"] == 2 and stats["reuse_hits"] == 0


def test_process_pool_is_shared():
    assert get_pool() is get_pool()


# ---------------------------------------------------------------------------
# slabs: what a compiled program checks out, once per call
# ---------------------------------------------------------------------------


def test_checkout_slab_is_the_same_arena_as_checkout():
    pool = BufferPool()
    a = pool.checkout((4, 3))
    where = _address(a)
    pool.release(a)
    slab = pool.checkout_slab(4 * 3 * 8)
    assert _address(slab.data) == where
    pool.release(slab)
    assert _address(pool.checkout([4, 3], "float64")) == where
    assert pool.stats()["allocations"] == 1


def test_counters_count_checkouts_in_slab_capacity():
    """One checkout is one slab, however many values its caller lays
    out inside; bytes are the slab's, not the request's."""
    pool = BufferPool()
    slab = pool.checkout_slab(1000)
    stats = pool.stats()
    assert (stats["checkouts"], stats["allocations"]) == (1, 1)
    assert stats["live_bytes"] == stats["high_water_bytes"] == 1024
    pool.release(slab)
    again = pool.checkout_slab(10)  # fits: the same slab, whole
    assert again is slab
    stats = pool.stats()
    assert (stats["checkouts"], stats["reuse_hits"]) == (2, 1)
    assert stats["allocations"] == 1 and stats["idle_bytes"] == 0
    assert stats["alloc_bytes_avoided"] == stats["live_bytes"] == 1024
    pool.release(again)
    assert pool.stats()["live_bytes"] == 0


def test_retire_on_miss_converges_to_one_slab_per_concurrent_caller():
    """Growing requests from one caller end in one slab, not one per
    size: a miss gives up the idle slab that was too small."""
    pool = BufferPool()
    for nbytes in (1000, 5000, 300, 20_000, 64, 20_000, 7000):
        pool.release(pool.checkout_slab(nbytes))
    stats = pool.stats()
    assert stats["allocations"] == 3 and stats["retirements"] == 2
    assert stats["peak_slabs"] == 1
    assert stats["idle_bytes"] == stats["high_water_bytes"] == 20_032
    # two callers at once: two slabs, and it stays two
    for _ in range(3):
        outer = pool.checkout_slab(20_000)
        inner = pool.checkout_slab(500)
        pool.release(inner)
        pool.release(outer)
    stats = pool.stats()
    assert stats["allocations"] == 4 and stats["peak_slabs"] == 2
    # the nested caller grows: its slab is replaced, the outer one kept
    outer = pool.checkout_slab(20_000)
    inner = pool.checkout_slab(900)
    pool.release(inner)
    pool.release(outer)
    stats = pool.stats()
    assert stats["allocations"] == 5 and stats["retirements"] == 3
    assert stats["peak_slabs"] == 2
    assert stats["idle_bytes"] == 20_032 + 960


def test_failed_batch_returns_what_it_took():
    """A failing allocator leaves the arena as it was: nothing checked
    out for ever, every counter consistent, the next checkout served."""

    class Failing(BufferPool):
        budget = 1

        def _allocate(self, shape, dtype):
            if self.budget == 0:
                raise MemoryError("arena exhausted")
            self.budget -= 1
            return np.empty(shape, dtype)

    pool = Failing()
    held = pool.checkout_slab(512)
    before = pool.stats()
    with pytest.raises(MemoryError):
        pool.checkout_slab(512)  # the only slab is live: must allocate
    with pytest.raises(MemoryError):
        pool.checkout((8, 8))
    assert pool.stats() == before
    pool.release(held)
    stats = pool.stats()
    assert stats["live_bytes"] == 0 and stats["idle_bytes"] == 512
    # and the arena is intact: the slab comes back out
    assert pool.checkout_slab(512) is held
    # a miss that retired an idle slab before failing has given it up,
    # and says so
    pool.release(held)
    with pytest.raises(MemoryError):
        pool.checkout_slab(4096)
    stats = pool.stats()
    assert stats["live_bytes"] == stats["idle_bytes"] == 0
    assert stats["retirements"] == 1 and stats["checkouts"] == 2


def test_batch_checkouts_are_poisoned_recorded_and_scoped():
    """The batch of values a program lays out in one slab is one
    checkout to every hook: poisoned whole, counted once, reclaimed by
    the cancel scope it was taken in."""
    from repro.resilience import chaos
    from repro.resilience.chaos import ChaosPlan

    pool = BufferPool()
    plan = ChaosPlan.from_spec("pool.poison:p=1.0")
    previous = chaos.set_plan(plan)
    try:
        with pytest.raises(RuntimeError):
            with pool.cancel_scope("request") as scope:
                slab = pool.checkout_slab(3 * 3 * 8 * 2)
                assert np.isnan(slab.data.view(np.float64)).all()
                buf = pool.checkout((3, 3))
                assert np.isnan(buf).all()
                mask = pool.checkout((3, 3), np.bool_)  # not a float: as is
                raise RuntimeError("cancelled mid-kernel")
    finally:
        chaos.set_plan(previous)
    assert plan.consults("pool.poison") == 2
    assert scope.reclaimed == 3 and pool.stats()["live_bytes"] == 0
    assert pool.stats()["checkouts"] == 3


def test_batches_from_many_threads_never_alias_or_lose_a_buffer():
    """More threads than cores hammer one arena under a shortened switch
    interval, each laying a batch of values out in the slab it got: no
    two live slabs ever share a byte, and every counter adds up
    afterwards."""
    import sys
    import threading

    pool = BufferPool()
    threads, rounds = 8, 300
    errors = []
    start = threading.Barrier(threads)

    def worker(tag):
        try:
            start.wait(timeout=10)
            for turn in range(rounds):
                nbytes = 128 * (1 + (turn + int(tag)) % 5)
                slab = pool.checkout_slab(nbytes)
                values = slab.data[:nbytes].view(np.float64)
                values.fill(tag)
                extra = pool.checkout((4, 4))
                extra.fill(tag)
                # a slab another thread also holds would be overwritten
                if (values != tag).any() or (extra != tag).any():
                    errors.append(f"thread {tag} saw another's data")
                pool.release(extra)
                pool.release(slab)
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(float(t),))
                   for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    stats = pool.stats()
    assert stats["checkouts"] == threads * rounds * 2
    assert stats["checkouts"] == stats["reuse_hits"] + stats["allocations"]
    assert stats["live_bytes"] == 0
    assert stats["peak_slabs"] <= threads * 2
    # what was allocated is idle now or was retired by a miss on the way
    assert stats["allocations"] - stats["retirements"] == len(pool._idle)
    assert stats["idle_bytes"] == sum(s.capacity for s in pool._idle)


def test_report_footer_prints_slabs_and_the_largest_slab():
    import re

    from repro.obs.render import _runtime_lines
    from repro.runtime import runtime_summary

    pool = get_pool()
    pool.release(pool.checkout((4, 4)))
    summary = runtime_summary()["pool"]
    # every key the footer, the benchmark's layer table and the process
    # executor's fold read
    assert set(summary) >= {
        "checkouts", "reuse_hits", "allocations", "allocated_bytes",
        "alloc_bytes_avoided", "live_bytes", "idle_bytes",
        "high_water_bytes", "scope_reclaims", "peak_slabs",
        "largest_slab_bytes", "retirements",
    }
    assert re.search(
        r"buffer pool: \d+ checkouts, \d+ reuse hits, [\d.]+ MB allocated, "
        r"[\d.]+ MB avoided, high water [\d.]+ MB in \d+ slabs "
        r"\(largest [\d.]+ MB, \d+ retired\)",
        "\n".join(_runtime_lines()),
    )
