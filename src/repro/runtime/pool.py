"""The scratch arena: a stack of slabs per worker, planned, not searched.

Compiled SDFG programs, the halo updater's seam rotation and the state
guards draw every temporary array from here instead of allocating.
Scratch belongs to a *worker* (:class:`Worker`): one compute slot of a
rank executor (:mod:`repro.runtime.ranks` hands it over with the slot),
or, outside any executor, the calling thread (:func:`current`). A worker
holds a short stack of *slabs* — flat, cache-line-aligned byte ranges —
indexed by nesting depth. A take (:meth:`Worker.take`) hands out the
slab at the worker's current depth and steps the depth up; the taker's
own ``finally`` steps it down again (``worker.depth -= 1``). A compiled
program sees all of its transients, kernel locals and expression
scratch as views at offsets fixed when it was compiled; the rotation
and the guard see a shaped view of the front of the slab
(:meth:`Slab.view`).

A slab grows only when a take needs more than it holds — the old one is
dropped before the new one is allocated — and never shrinks. Nothing is
searched: a depth has one slab. ``DynamicalCore.prepare`` sizes depth 0
of every worker of its executor to the widest program of the step and
binds every program to those slabs, so a steady step allocates nothing
and checks no kernel argument.

Taken memory holds arbitrary data. Call sites that need defined
contents (kernel locals that are read before written, flagged by the
codegen analysis mirroring the ``repro.lint`` D-rules) zero them
explicitly — everything else is fully overwritten by its producer.

Safety properties:

- two live takes never share a byte: on one worker they sit at two
  depths, and one thread at a time uses a worker — its own, or the one
  of the executor slot it holds;
- nesting is safe: a program called from inside another's callback
  takes the next depth;
- a take comes back in its taker's ``finally``, also when the call
  raises, on every thread and in every worker process;
- a rank thread cannot hand its slot's scratch to another rank while it
  holds a take (``ranks.io_wait`` raises);
- :meth:`BufferPool.trim` gives the kernel back the pages of the slabs
  above each given worker's depth; its callers pass only workers no
  other thread uses meanwhile, so a live take's bytes are never touched.
  A trimmed slab keeps its object and its address, and its next taker
  reads zeros where it would have read stale values — arbitrary
  contents either way.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import threading
import weakref
from typing import List, Optional

import numpy as np

from repro.obs.counters import Counters, register
from repro.resilience import chaos as _chaos

__all__ = ["ALIGN", "BufferPool", "Slab", "Worker", "bind", "current",
           "get_pool"]

#: slabs start on a cache line and hold a whole number of them; a caller
#: that lays values out in a slab at multiples of this keeps every value
#: on a cache line too
ALIGN = 64

_PAGE = mmap.PAGESIZE
try:
    _DONTNEED = mmap.MADV_DONTNEED
    _madvise = ctypes.CDLL(None).madvise
    _madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    _madvise.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # no madvise: trim keeps all
    _madvise = None


def _drop_pages(data: np.ndarray) -> int:
    """Give the kernel back the whole pages strictly inside the bytes of
    the contiguous array ``data`` (``madvise(MADV_DONTNEED)``). The
    mapping, and with it every address into it, stays; the next touch of
    a page faults in a zero-filled one. Returns the bytes given back: 0
    where there is no ``madvise``."""
    if not data.flags.c_contiguous:
        raise ValueError("only a contiguous array's pages can be dropped")
    start = data.ctypes.data
    first = -(-start // _PAGE) * _PAGE
    end = (start + data.nbytes) // _PAGE * _PAGE
    if _madvise is None or end <= first \
            or _madvise(first, end - first, _DONTNEED) != 0:
        return 0
    return end - first


class Slab:
    """``capacity`` bytes (``data``, ``uint8``) from a cache line on.
    Weakly referenceable: views derived from a slab are keyed on it and
    go when its worker drops it for a larger one."""

    __slots__ = ("data", "capacity", "__weakref__")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.capacity = data.nbytes

    def view(self, shape, dtype) -> np.ndarray:
        """The front of the slab as an array of ``shape``/``dtype``."""
        dtype = np.dtype(dtype)
        return self.data[:math.prod(shape) * dtype.itemsize].view(dtype) \
            .reshape(shape)


class Worker:
    """One compute slot's scratch in ``arena``: ``slabs[d]`` serves the
    takes made at nesting depth ``d``, ``depth`` is how many takes are
    live. Used by one thread at a time."""

    __slots__ = ("arena", "slabs", "depth", "__weakref__")

    def __init__(self, arena: "BufferPool"):
        self.arena = arena
        self.slabs: List[Slab] = []
        self.depth = 0
        with arena._lock:
            arena._workers.add(self)

    def reserve(self, nbytes: int) -> Slab:
        """The slab at the current depth, grown to ``nbytes``, untaken."""
        depth, slabs = self.depth, self.slabs
        if depth < len(slabs) and slabs[depth].capacity >= nbytes:
            return slabs[depth]
        return self.arena._grow(self, nbytes)

    def take(self, nbytes: int) -> Slab:
        """:meth:`reserve`, and the depth steps up; the taker steps it
        down in its ``finally``. Contents arbitrary."""
        slab = self.reserve(nbytes)
        self.arena.counters.add("checkouts")
        if _chaos._PLAN is not None:
            _chaos.maybe_poison(slab.view((-(-nbytes // 8),), np.float64))
        self.depth += 1
        return slab


class BufferPool:
    """The scratch arena: its workers, and their accounting."""

    def __init__(self):
        self._pid = os.getpid()
        self._workers: "weakref.WeakSet[Worker]" = weakref.WeakSet()
        self._lock = threading.Lock()
        #: the accounting; it shares the arena's lock, under which a
        #: slab's growth increments its values in place
        self.counters = Counters(
            sums=("checkouts", "allocations", "allocated_bytes",
                  "released_bytes"),
            peaks=("high_water_bytes", "peak_slabs", "largest_slab_bytes"),
            local={
                "live_bytes": lambda arena: arena._held(True),
                "idle_bytes": lambda arena: arena._held(False),
            },
            lock=self._lock,
            owner=self,
        )
        self.stats = self.counters.snapshot

    def _held(self, live: bool) -> int:
        """Bytes of the slabs taken (``live``) or not taken right now."""
        with self._lock:
            return sum(slab.capacity for w in self._workers for slab in
                       (w.slabs[:w.depth] if live else w.slabs[w.depth:]))

    #: the allocator behind a growth (an attribute so a test can make the
    #: n-th allocation fail)
    _allocate = staticmethod(np.empty)

    def _grow(self, worker: Worker, nbytes: int) -> Slab:
        """Replace ``worker``'s slab at its depth, and the deeper ones, by
        one of at least ``nbytes``: the old ones are gone before the new
        one is allocated."""
        capacity = max(-(-nbytes // ALIGN), 1) * ALIGN
        n = self.counters.values
        with self._lock:
            del worker.slabs[worker.depth:]
            raw = self._allocate(capacity + ALIGN, np.uint8)
            start = -raw.ctypes.data % ALIGN
            slab = Slab(raw[start:start + capacity])
            worker.slabs.append(slab)
            n["allocations"] += 1
            n["allocated_bytes"] += capacity
            n["largest_slab_bytes"] = max(n["largest_slab_bytes"], capacity)
            held = [s.capacity for w in self._workers for s in w.slabs]
            n["high_water_bytes"] = max(n["high_water_bytes"], sum(held))
            n["peak_slabs"] = max(n["peak_slabs"], len(held))
        return slab

    # ------------------------------------------------------------------
    def trim(self, *arrays: np.ndarray, workers=()) -> int:
        """Give the kernel back the pages of ``arrays`` (buffers that hold
        no value until their owner next writes them) and of the slabs no
        take holds of ``workers``, which no other thread may use
        meanwhile. Everything stays where it is, so whatever was bound
        to it stays valid. Returns the bytes given back."""
        released = sum(map(_drop_pages, arrays))
        released += sum(_drop_pages(slab.data) for w in workers
                        for slab in w.slabs[w.depth:])
        self.counters.add("released_bytes", released)
        return released

    # ------------------------------------------------------------------
    # fork safety
    # ------------------------------------------------------------------
    def _reset_after_fork(self) -> None:
        """Give a forked child a clean arena: a fresh lock (the fork may
        have happened while another thread held it), no slab on any
        worker, every depth 0 (the threads that held takes are not in the
        child) and zeroed accounting."""
        self._pid = os.getpid()
        self._lock = self.counters.lock = threading.Lock()
        for worker in list(self._workers):
            worker.slabs = []
            worker.depth = 0
        self.counters.reset()


_POOL: BufferPool = BufferPool()
register("pool", _POOL.counters)


def _reset_default_pool_after_fork() -> None:
    _POOL._reset_after_fork()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_default_pool_after_fork)


def get_pool() -> BufferPool:
    """The process-wide default arena. Fork-safe: a child that bypassed
    the ``register_at_fork`` hook gets a clean arena on first access."""
    if _POOL._pid != os.getpid():
        _POOL._reset_after_fork()
    return _POOL


#: the worker each thread takes from (``worker``)
_local = threading.local()


def current() -> Worker:
    """The calling thread's worker: the one of the executor slot it
    holds, else its own (made at its first take)."""
    if getattr(_local, "worker", None) is None:
        _local.worker = Worker(get_pool())
    return _local.worker


def bind(worker: Optional[Worker]) -> Optional[Worker]:
    """Make ``worker`` the calling thread's (``None``: none until the
    next :func:`current` makes one); returns the one it replaces."""
    previous = getattr(_local, "worker", None)
    _local.worker = worker
    return previous
