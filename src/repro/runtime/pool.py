"""Capacity-keyed scratch arena (checkout/release of slabs).

Compiled SDFG programs, the halo updater and the state guards draw every
temporary array from here instead of allocating. The arena owns *slabs* —
flat, cache-line-aligned byte ranges — and a slab serves one caller at a
time: a compiled program checks one out per call
(:meth:`BufferPool.checkout_slab`) and sees all of its transients, kernel
locals and expression scratch as views at offsets fixed when it was
compiled; :meth:`BufferPool.checkout` hands a single shaped array out as
a view of the front of a slab. Nothing is keyed on shape: the smallest
idle slab that holds a request serves it, so consecutive programs of
different shapes run in the same memory and steady-state execution
allocates nothing.

The arena stays as small as its callers are concurrent. A request no idle
slab can hold allocates one that can — and *retires* the largest idle
slab that was too small instead of keeping both, so a sequence of
growing requests ends with one slab, not one per size, and the number of
slabs only grows when all of them are checked out at once (a program
called from inside another's callback, a second rank thread).

Checked-out memory holds arbitrary data. Call sites that need defined
contents (kernel locals that are read before written, flagged by the
codegen analysis mirroring the ``repro.lint`` D-rules) zero them
explicitly — everything else is fully overwritten by its producer.

Safety properties:

- two live checkouts never share a byte — a slab leaves the idle list on
  checkout and only returns on release;
- :meth:`BufferPool.release` takes exactly what a checkout returned: a
  second release, a view of a checkout and an array the arena never
  handed out all raise, because any of them would let two later
  checkouts alias;
- nesting is safe: a nested program call simply checks out another slab
  while the outer call's slab is live.

``BufferPool(recycle=False)`` does not recycle (every checkout allocates
a fresh slab, a released one is dropped) as a debugging aid; the
accounting still runs.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.obs.counters import Counters, register
from repro.resilience import chaos as _chaos

__all__ = ["ALIGN", "BufferPool", "CancelScope", "Slab", "get_pool"]

#: slabs start on a cache line and hold a whole number of them; a caller
#: that lays values out in a slab at multiples of this keeps every value
#: on a cache line too
ALIGN = 64


class Slab:
    """One allocation of the arena: ``data`` is ``capacity`` bytes
    (``uint8``) starting on a cache line. Weakly referenceable, so a
    caller can key the views it derives from a slab on the slab and lose
    them when the arena retires it."""

    __slots__ = ("data", "capacity", "__weakref__")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.capacity = data.nbytes


#: what a checkout returns and a release takes back
Handle = Union[Slab, np.ndarray]

_CAPACITY = operator.attrgetter("capacity")


class BufferPool:
    """A scratch arena of slabs, served by capacity (smallest fit)."""

    def __init__(self, recycle: bool = True):
        self.recycle = recycle
        self._pid = os.getpid()
        self._idle: List[Slab] = []
        #: id(handle) → (handle, its slab) of every live checkout; holding
        #: the handle keeps its id from being recycled while it is live
        self._live: Dict[int, Tuple[Handle, Slab]] = {}
        self._lock = threading.Lock()
        #: per-thread stack of active CancelScopes (cooperative
        #: cancellation support for the serving layer)
        self._tls = threading.local()
        #: bytes checked out and bytes idle right now
        self.live_bytes = 0
        self.idle_bytes = 0
        #: the accounting; it shares the arena's lock, under which
        #: checkout and release increment ``_n`` in place
        self.counters = Counters(
            sums=(
                "checkouts", "reuse_hits", "allocations", "allocated_bytes",
                "alloc_bytes_avoided", "retirements", "scope_reclaims",
            ),
            peaks=("high_water_bytes", "peak_slabs", "largest_slab_bytes"),
            local={
                "live_bytes": operator.attrgetter("live_bytes"),
                "idle_bytes": operator.attrgetter("idle_bytes"),
            },
            lock=self._lock,
            owner=self,
        )
        self._n = self.counters.values
        self.stats = self.counters.snapshot

    # ------------------------------------------------------------------
    # cooperative cancellation
    # ------------------------------------------------------------------
    def cancel_scope(self, label: str = "") -> "CancelScope":
        """A context manager that returns still-live checkouts made by
        the **current thread** inside the scope back to the arena if the
        scope exits with an exception.

        This is the serving layer's "no wedged workers" guarantee: a
        request cancelled (deadline exhausted, fault mid-kernel) between
        a checkout and its matching ``release`` would otherwise leak that
        slab from the arena for the worker's whole lifetime. A clean exit
        releases nothing — checkouts intentionally retained past the
        scope stay live. Only checkouts made on the entering thread are
        tracked, so rank-executor worker threads running under a parallel
        executor are not covered.
        """
        return CancelScope(self, label)

    def _scope_stack(self) -> List["CancelScope"]:
        stack = getattr(self._tls, "scopes", None)
        if stack is None:
            stack = self._tls.scopes = []
        return stack

    def _track(self, handle: Handle) -> None:
        stack = getattr(self._tls, "scopes", None)
        if stack:
            stack[-1]._live[id(handle)] = handle

    def _untrack(self, handle: Handle) -> None:
        stack = getattr(self._tls, "scopes", None)
        if stack:
            key = id(handle)
            for scope in reversed(stack):
                if scope._live.pop(key, None) is not None:
                    return

    # ------------------------------------------------------------------
    # checkout / release
    # ------------------------------------------------------------------
    #: the allocator behind a miss (an attribute so a test can make the
    #: n-th allocation fail)
    _allocate = staticmethod(np.empty)

    def checkout_slab(self, nbytes: int) -> Slab:
        """A slab of at least ``nbytes`` bytes (contents arbitrary) — the
        path of a compiled program, which lays its values out inside."""
        return self._checkout(nbytes, None)

    def checkout(self, shape, dtype=np.float64) -> np.ndarray:
        """An array of exactly ``shape``/``dtype`` (contents arbitrary):
        a view of the front of a slab."""
        shape, dtype = tuple(shape), np.dtype(dtype)
        return self._checkout(math.prod(shape) * dtype.itemsize, (shape, dtype))

    def _checkout(self, nbytes: int, spec) -> Handle:
        capacity = max(-(-nbytes // ALIGN), 1) * ALIGN
        n = self._n
        with self._lock:
            # (without recycling nothing is ever idle)
            fits = [s for s in self._idle if s.capacity >= capacity]
            if fits:
                slab = min(fits, key=_CAPACITY)
                self._idle.remove(slab)
                n["reuse_hits"] += 1
                n["alloc_bytes_avoided"] += slab.capacity
                self.idle_bytes -= slab.capacity
            else:
                if self._idle:
                    # every idle slab is too small: the largest goes, and
                    # is gone before its replacement is allocated
                    retired = max(self._idle, key=_CAPACITY)
                    self._idle.remove(retired)
                    self.idle_bytes -= retired.capacity
                    n["retirements"] += 1
                    del retired
                raw = self._allocate(capacity + ALIGN, np.uint8)
                start = -raw.ctypes.data % ALIGN
                slab = Slab(raw[start:start + capacity])
                n["allocations"] += 1
                n["allocated_bytes"] += capacity
                n["largest_slab_bytes"] = max(n["largest_slab_bytes"], capacity)
            if spec is None:
                handle = slab
            else:
                handle = slab.data[:nbytes].view(spec[1]).reshape(spec[0])
            self._live[id(handle)] = (handle, slab)
            n["checkouts"] += 1
            self.live_bytes += slab.capacity
            n["high_water_bytes"] = max(
                n["high_water_bytes"], self.live_bytes + self.idle_bytes
            )
            n["peak_slabs"] = max(
                n["peak_slabs"], len(self._live) + len(self._idle)
            )
        try:
            if _chaos._PLAN is not None:
                _chaos.maybe_poison(
                    slab.data.view(np.float64) if spec is None else handle
                )
            self._track(handle)
        except BaseException:
            self.release(handle)
            raise
        return handle

    def release(self, handle: Handle) -> None:
        """Return a checkout — the very object ``checkout_slab`` or
        ``checkout`` returned — to the arena for reuse."""
        with self._lock:
            entry = self._live.pop(id(handle), None)
            if entry is None:
                raise ValueError(
                    "not a live checkout of this arena: released twice, a "
                    "view of a checkout, or never handed out here — any of "
                    "them would let later checkouts alias"
                )
            slab = entry[1]
            # live + idle does not grow: no new high water
            self.live_bytes -= slab.capacity
            if self.recycle:
                self._idle.append(slab)
                self.idle_bytes += slab.capacity
        self._untrack(handle)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all idle slabs (live checkouts are unaffected)."""
        with self._lock:
            self._idle.clear()
            self.idle_bytes = 0

    # ------------------------------------------------------------------
    # fork safety
    # ------------------------------------------------------------------
    def _reset_after_fork(self) -> None:
        """Give a forked child a clean arena.

        The child inherits the parent's slabs, stats and — if the fork
        happened while another thread held it — a permanently-locked
        ``threading.Lock``. Everything is replaced: a fresh lock, no
        slabs and zeroed accounting, so the child can neither deadlock on
        the inherited lock nor hand out memory the parent still considers
        checked out. A checkout the parent held at the fork is foreign to
        the child's arena like any other array.
        """
        self._pid = os.getpid()
        self._lock = self.counters.lock = threading.Lock()
        self._tls = threading.local()
        self._idle = []
        self._live = {}
        self.live_bytes = self.idle_bytes = 0
        self.counters.reset()


class CancelScope:
    """See :meth:`BufferPool.cancel_scope`. ``reclaimed`` (valid after
    exit) counts the checkouts returned to the arena."""

    __slots__ = ("_pool", "label", "_live", "reclaimed")

    def __init__(self, pool: BufferPool, label: str = ""):
        self._pool = pool
        self.label = label
        self._live: Dict[int, Handle] = {}
        self.reclaimed = 0

    def __enter__(self) -> "CancelScope":
        self._pool._scope_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._pool._scope_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("cancel scopes must exit LIFO")
        stack.pop()
        leftovers = list(self._live.values())
        self._live.clear()
        if exc_type is None:
            # clean exit: retained checkouts are the caller's business,
            # but an enclosing scope must keep covering them
            for handle in leftovers:
                self._pool._track(handle)
            return False
        for handle in leftovers:
            self._pool.release(handle)
        self.reclaimed = len(leftovers)
        if leftovers:
            self._pool.counters.add("scope_reclaims", self.reclaimed)
        return False


_POOL: BufferPool = BufferPool()
register("pool", _POOL.counters)


def _reset_default_pool_after_fork() -> None:
    _POOL._reset_after_fork()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_default_pool_after_fork)


def get_pool() -> BufferPool:
    """The process-wide default arena used by compiled programs.

    Fork-safe: a child that somehow bypassed the ``register_at_fork``
    hook (exotic platforms, embedded interpreters) is still caught by the
    pid guard and gets a clean arena on first access.
    """
    if _POOL._pid != os.getpid():
        _POOL._reset_after_fork()
    return _POOL
