"""Unit tests for the scratch buffer arena (repro.runtime.pool)."""

import numpy as np
import pytest

from repro.runtime.pool import BufferPool, get_pool


def test_checkout_release_roundtrip_reuses_buffer():
    pool = BufferPool()
    a = pool.checkout((4, 3))
    pool.release(a)
    b = pool.checkout((4, 3))
    assert b is a
    assert pool.reuse_hits == 1
    assert pool.allocations == 1


def test_live_buffers_never_alias():
    pool = BufferPool()
    a = pool.checkout((8, 8))
    b = pool.checkout((8, 8))
    assert a is not b
    a[...] = 1.0
    b[...] = 2.0
    assert float(a[0, 0]) == 1.0  # no shared storage
    pool.release(a)
    pool.release(b)
    # after release both come back, still distinct objects
    c = pool.checkout((8, 8))
    d = pool.checkout((8, 8))
    assert c is not d
    assert {id(c), id(d)} == {id(a), id(b)}


def test_keying_is_exact_shape_and_dtype():
    pool = BufferPool()
    a = pool.checkout((4, 4))
    pool.release(a)
    assert pool.checkout((4, 4), np.float32) is not a
    assert pool.checkout((2, 8)) is not a  # same size, different shape
    assert pool.checkout((4, 4)) is a


def test_double_release_raises():
    pool = BufferPool()
    a = pool.checkout((2, 2))
    pool.release(a)
    with pytest.raises(ValueError, match="released twice"):
        pool.release(a)


def test_releasing_a_view_raises():
    pool = BufferPool()
    a = pool.checkout((4, 4))
    with pytest.raises(ValueError, match="view"):
        pool.release(a[:2])
    pool.release(a)


def test_high_water_and_byte_accounting():
    pool = BufferPool()
    nbytes = 4 * 4 * 8
    a = pool.checkout((4, 4))
    b = pool.checkout((4, 4))
    assert pool.live_bytes == 2 * nbytes
    assert pool.high_water_bytes == 2 * nbytes
    pool.release(a)
    pool.release(b)
    assert pool.live_bytes == 0
    assert pool.idle_bytes == 2 * nbytes
    c = pool.checkout((4, 4))
    assert pool.alloc_bytes_avoided == nbytes
    stats = pool.stats()
    assert stats["checkouts"] == 3
    assert stats["allocations"] == 2
    assert stats["high_water_bytes"] == 2 * nbytes
    pool.release(c)


def test_checkout_many_release_many():
    pool = BufferPool()
    specs = [((3, 3), np.dtype(np.float64)), ((2,), np.dtype(np.int64))]
    bufs = pool.checkout_many(specs)
    assert [b.shape for b in bufs] == [(3, 3), (2,)]
    assert [b.dtype for b in bufs] == [np.float64, np.int64]
    pool.release_many(bufs)
    again = pool.checkout_many(specs)
    assert [id(b) for b in again] == [id(b) for b in bufs]


def test_recycling_disabled_still_accounts():
    pool = BufferPool(recycle=False)
    a = pool.checkout((4, 4))
    pool.release(a)
    b = pool.checkout((4, 4))
    assert b is not a
    assert pool.reuse_hits == 0
    assert pool.allocations == 2


def test_clear_drops_idle_buffers():
    pool = BufferPool()
    a = pool.checkout((4, 4))
    pool.release(a)
    pool.clear()
    assert pool.idle_bytes == 0
    assert pool.checkout((4, 4)) is not a


def test_process_pool_is_shared():
    assert get_pool() is get_pool()


# ---------------------------------------------------------------------------
# the batch path (one lock per batch, pre-normalised keys)
# ---------------------------------------------------------------------------


def test_checkout_keys_is_the_same_arena_as_checkout():
    pool = BufferPool()
    a = pool.checkout((4, 3))
    pool.release(a)
    key = BufferPool.key((4, 3), np.float64)
    assert key == ((4, 3), np.dtype(np.float64).str)
    (b,) = pool.checkout_keys([key])
    assert b is a
    pool.release_many([b])
    assert pool.checkout([4, 3], "float64") is a  # any spelling, one key


def test_batch_counters_count_buffers_not_batches():
    pool = BufferPool()
    keys = [BufferPool.key((8, 8), np.float64)] * 3 \
        + [BufferPool.key((2,), np.int64)]
    bufs = pool.checkout_keys(keys)
    nbytes = sum(b.nbytes for b in bufs)
    assert len({id(b) for b in bufs}) == 4  # live buffers never alias
    stats = pool.stats()
    assert (stats["checkouts"], stats["allocations"]) == (4, 4)
    assert stats["live_bytes"] == stats["high_water_bytes"] == nbytes
    pool.release_many(bufs)
    again = pool.checkout_keys(keys)
    stats = pool.stats()
    assert (stats["checkouts"], stats["reuse_hits"]) == (8, 4)
    assert stats["allocations"] == 4 and stats["idle_bytes"] == 0
    assert stats["alloc_bytes_avoided"] == nbytes
    assert stats["high_water_bytes"] == nbytes
    pool.release_many(again)
    assert pool.stats()["live_bytes"] == 0


def test_failed_batch_returns_what_it_took():
    """An allocation failure on the n-th buffer must not leave the first
    n-1 checked out for ever."""

    class Failing(BufferPool):
        budget = 2

        def _allocate(self, shape, dtype):
            if self.budget == 0:
                raise MemoryError("arena exhausted")
            self.budget -= 1
            return np.empty(shape, dtype)

    pool = Failing()
    warm = pool.checkout((4, 4))  # one recycled hit inside the batch
    pool.release(warm)
    keys = [BufferPool.key((4, 4), np.float64)] * 4
    with pytest.raises(MemoryError):
        pool.checkout_keys(keys)  # hit, alloc, then the failure
    stats = pool.stats()
    assert stats["live_bytes"] == 0
    assert stats["idle_bytes"] == 2 * warm.nbytes
    assert stats["checkouts"] == 3  # the two it took plus the first one
    # and the arena is intact: both buffers come back out
    assert len(pool.checkout_keys(keys[:2])) == 2


def test_release_many_stops_at_the_offender():
    pool = BufferPool()
    a, b, c = pool.checkout_many([((4, 4), np.dtype(float))] * 3)
    with pytest.raises(ValueError, match="view"):
        pool.release_many([a, b[:2], c])
    assert pool.stats()["live_bytes"] == b.nbytes + c.nbytes
    pool.release_many([b, c])
    with pytest.raises(ValueError, match="twice"):
        pool.release_many([a])
    assert pool.stats()["live_bytes"] == 0


def test_batch_checkouts_are_poisoned_recorded_and_scoped():
    from repro.resilience import chaos
    from repro.resilience.chaos import ChaosPlan

    pool = BufferPool()
    events = []
    pool.set_recorder(lambda kind, buf, label: events.append(kind))
    plan = ChaosPlan.from_spec("pool.poison:p=1.0")
    previous = chaos.set_plan(plan)
    keys = [BufferPool.key((3, 3), np.float64)] * 2
    try:
        with pytest.raises(RuntimeError):
            with pool.cancel_scope("request") as scope:
                bufs = pool.checkout_keys(keys)
                assert all(np.isnan(b).all() for b in bufs)
                raise RuntimeError("cancelled mid-kernel")
    finally:
        chaos.set_plan(previous)
        pool.set_recorder(None)
    assert plan.consults("pool.poison") == 2
    assert scope.reclaimed == 2 and pool.stats()["live_bytes"] == 0
    assert events == ["acquire", "acquire", "release", "release"]


def test_batches_from_many_threads_never_alias_or_lose_a_buffer():
    """More threads than cores hammer one arena with batches of the same
    keys under a shortened switch interval: no two live buffers are ever
    the same array, and every counter adds up afterwards."""
    import sys
    import threading

    pool = BufferPool()
    keys = [BufferPool.key((16,), np.float64)] * 3 \
        + [BufferPool.key((4, 4), np.float64)]
    threads, rounds = 8, 300
    errors = []
    start = threading.Barrier(threads)

    def worker(tag):
        try:
            start.wait(timeout=10)
            for _ in range(rounds):
                bufs = pool.checkout_keys(keys)
                for buf in bufs:
                    buf.fill(tag)
                # a buffer another thread also holds would be overwritten
                if any((buf != tag).any() for buf in bufs):
                    errors.append(f"thread {tag} saw another's data")
                pool.release_many(bufs)
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
    assert stats["checkouts"] == threads * rounds * len(keys)
    assert stats["checkouts"] == stats["reuse_hits"] + stats["allocations"]
    assert stats["live_bytes"] == 0
    assert stats["idle_bytes"] == stats["allocated_bytes"]
    assert stats["allocations"] <= threads * len(keys)
