"""Cooperative cancellation on the buffer arena: a
:meth:`BufferPool.cancel_scope` returns still-live checkouts to the pool
when the scope dies with an exception — the serving layer's guarantee
that a cancelled or faulted request never leaks scratch buffers from a
long-lived worker."""

import threading

import numpy as np
import pytest

from repro.runtime.pool import BufferPool


@pytest.fixture
def pool():
    return BufferPool(recycle=True)


def test_exception_reclaims_live_checkouts(pool):
    with pytest.raises(RuntimeError):
        with pool.cancel_scope("req1") as scope:
            a = pool.checkout((8,))
            b = pool.checkout((4,), np.float32)
            raise RuntimeError("fault mid-kernel")
    assert scope.reclaimed == 2
    assert pool.stats()["scope_reclaims"] == 2
    # the buffers are genuinely back in the arena: same-shape checkouts
    # are reuse hits, not allocations
    allocs = pool.stats()["allocations"]
    again = pool.checkout((8,))
    assert pool.stats()["allocations"] == allocs
    assert again.ctypes.data == a.ctypes.data
    pool.release(again)
    pool.release(pool.checkout((4,), np.float32))
    del b


def test_clean_exit_releases_nothing(pool):
    with pool.cancel_scope("req2") as scope:
        kept = pool.checkout((16,))
    assert scope.reclaimed == 0
    assert pool.stats()["scope_reclaims"] == 0
    # the retained buffer is still the caller's: a fresh checkout of the
    # same shape must not alias it
    other = pool.checkout((16,))
    assert other is not kept
    pool.release(kept)
    pool.release(other)


def test_released_buffers_are_untracked(pool):
    """A checkout already returned inside the scope is not re-released
    on cancellation (no double-free into the free list)."""
    with pytest.raises(ValueError):
        with pool.cancel_scope() as scope:
            buf = pool.checkout((8,))
            pool.release(buf)
            raise ValueError("late fault")
    assert scope.reclaimed == 0
    idle = pool.stats()["idle_bytes"]
    assert idle == buf.nbytes  # exactly one copy in the arena


def test_clean_inner_exit_hands_coverage_to_outer_scope(pool):
    """Nesting: a buffer retained past a clean inner scope is still
    covered by the enclosing scope's cancellation."""
    with pytest.raises(RuntimeError):
        with pool.cancel_scope("outer") as outer:
            with pool.cancel_scope("inner") as inner:
                pool.checkout((8,))
            raise RuntimeError("outer fault")
    assert inner.reclaimed == 0
    assert outer.reclaimed == 1
    assert pool.stats()["scope_reclaims"] == 1


def test_inner_exception_reclaims_only_inner_checkouts(pool):
    outer_buf = None
    with pool.cancel_scope("outer") as outer:
        outer_buf = pool.checkout((32,))
        with pytest.raises(RuntimeError):
            with pool.cancel_scope("inner") as inner:
                pool.checkout((8,))
                raise RuntimeError("inner fault")
        assert inner.reclaimed == 1
    assert outer.reclaimed == 0  # outer exited cleanly, kept its buffer
    pool.release(outer_buf)


def test_scopes_must_exit_lifo(pool):
    outer = pool.cancel_scope("outer")
    inner = pool.cancel_scope("inner")
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(RuntimeError, match="LIFO"):
        outer.__exit__(None, None, None)
    inner.__exit__(None, None, None)
    outer.__exit__(None, None, None)


def test_other_threads_checkouts_not_reclaimed(pool):
    """Scopes are per-thread: a concurrent worker's checkout is not
    yanked back by this thread's cancellation."""
    grabbed = {}

    def worker():
        grabbed["buf"] = pool.checkout((64,))

    with pytest.raises(RuntimeError):
        with pool.cancel_scope("mine") as scope:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            raise RuntimeError("cancel me")
    assert scope.reclaimed == 0
    # the worker's buffer is still live — releasing it is its business
    other = pool.checkout((64,))
    assert other is not grabbed["buf"]
    pool.release(other)
    pool.release(grabbed["buf"])
