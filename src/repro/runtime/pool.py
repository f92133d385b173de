"""Shape/dtype-keyed scratch buffer arena (checkout/release).

Compiled SDFG programs, the halo updater and the ``out=`` expression
scheduler draw every temporary array from here instead of allocating.
Buffers are keyed by exact ``(shape, dtype)``; a released buffer is
recycled by the next checkout of the same key, so steady-state execution
of a compiled program performs zero array allocations.

Checked-out buffers contain arbitrary data. Call sites that need defined
contents (kernel locals that are read before written, flagged by the
codegen analysis mirroring the ``repro.lint`` D-rules) zero them
explicitly — everything else is fully overwritten by its producer.

Safety properties:

- two live (checked-out) buffers never alias — a buffer leaves the free
  list on checkout and only returns on release;
- double release raises, as does releasing a view (``arr.base`` set),
  which would let two later checkouts alias;
- nesting is safe: a nested program call simply checks out different
  buffers while the outer call's buffers are live.

``REPRO_BUFFER_POOL=0`` disables recycling (every checkout allocates a
fresh array) as a debugging aid; the accounting still runs.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.resilience import chaos as _chaos

__all__ = ["BufferPool", "CancelScope", "get_pool"]

_Key = Tuple[Tuple[int, ...], str]


class BufferPool:
    """A scratch arena with free lists keyed by (shape, dtype)."""

    def __init__(self, recycle: bool = True):
        self.recycle = recycle
        self._pid = os.getpid()
        self._free: Dict[_Key, List[np.ndarray]] = {}
        self._idle_ids: set = set()
        self._lock = threading.Lock()
        #: per-thread stack of active CancelScopes (cooperative
        #: cancellation support for the serving layer)
        self._tls = threading.local()
        self.scope_reclaims = 0
        #: optional lifetime recorder ``fn(kind, buf, label=None)`` used
        #: by ``repro.lint.runtime_rules.record_buffer_events`` — one
        #: ``is not None`` predicate per checkout when inactive
        self._recorder = None
        # accounting
        self.checkouts = 0
        self.reuse_hits = 0
        self.allocations = 0
        self.allocated_bytes = 0
        self.alloc_bytes_avoided = 0
        self.live_bytes = 0
        self.idle_bytes = 0
        self.high_water_bytes = 0

    # ------------------------------------------------------------------
    def set_recorder(self, recorder):
        """Install (or with ``None`` remove) a lifetime-event recorder;
        returns the previous one so recorders nest."""
        previous = self._recorder
        self._recorder = recorder
        return previous

    def note(self, kind: str, buf: np.ndarray, label=None) -> None:
        """Report an external lifetime event (``use``/``bind``) on a
        buffer to the active recorder, if any. No-op otherwise."""
        if self._recorder is not None:
            self._recorder(kind, buf, label)

    @staticmethod
    def key(shape, dtype) -> _Key:
        """The free-list key of a ``shape``/``dtype`` buffer."""
        return (tuple(shape), np.dtype(dtype).str)

    # ------------------------------------------------------------------
    # cooperative cancellation
    # ------------------------------------------------------------------
    def cancel_scope(self, label: str = "") -> "CancelScope":
        """A context manager that returns still-live buffers checked out
        by the **current thread** inside the scope back to the arena if
        the scope exits with an exception.

        This is the serving layer's "no wedged workers" guarantee: a
        request cancelled (deadline exhausted, fault mid-kernel) between
        a ``checkout`` and its matching ``release`` would otherwise leak
        that buffer from the arena for the worker's whole lifetime. A
        clean exit releases nothing — buffers intentionally retained
        past the scope stay live. Only checkouts made on the entering
        thread are tracked, so rank-executor worker threads running
        under a parallel executor are not covered.
        """
        return CancelScope(self, label)

    def _scope_stack(self) -> List["CancelScope"]:
        stack = getattr(self._tls, "scopes", None)
        if stack is None:
            stack = self._tls.scopes = []
        return stack

    def _track(self, buf: np.ndarray) -> None:
        stack = getattr(self._tls, "scopes", None)
        if stack:
            stack[-1]._live[id(buf)] = buf

    def _untrack(self, buf: np.ndarray) -> None:
        stack = getattr(self._tls, "scopes", None)
        if stack:
            key = id(buf)
            for scope in reversed(stack):
                if scope._live.pop(key, None) is not None:
                    return

    #: the allocator behind a miss (an attribute so a test can make the
    #: n-th allocation fail)
    _allocate = staticmethod(np.empty)

    def checkout(self, shape, dtype=np.float64) -> np.ndarray:
        """Return a buffer of exactly ``shape``/``dtype`` (contents
        arbitrary)."""
        return self.checkout_keys((self.key(shape, dtype),))[0]

    def release(self, buf: np.ndarray) -> None:
        """Return a buffer to the arena for reuse."""
        self.release_many((buf,))

    def checkout_many(
        self, specs: Sequence[Tuple[Tuple[int, ...], np.dtype]]
    ) -> List[np.ndarray]:
        return self.checkout_keys([self.key(*spec) for spec in specs])

    def checkout_keys(self, keys: Sequence[_Key]) -> List[np.ndarray]:
        """One buffer per arena key (:meth:`key`), taking the lock once —
        the path of a compiled program, which derives its keys when it is
        built. If an allocation fails part-way, the buffers the batch
        already took go back before the error propagates."""
        bufs: List[np.ndarray] = []
        hits = hit_bytes = allocs = alloc_bytes = 0
        try:
            with self._lock:
                try:
                    for key in keys:
                        free = self._free.get(key)
                        if free and self.recycle:
                            buf = free.pop()
                            self._idle_ids.discard(id(buf))
                            hits += 1
                            hit_bytes += buf.nbytes
                        else:
                            buf = self._allocate(key[0], key[1])
                            allocs += 1
                            alloc_bytes += buf.nbytes
                        bufs.append(buf)
                finally:
                    self.checkouts += hits + allocs
                    self.reuse_hits += hits
                    self.alloc_bytes_avoided += hit_bytes
                    self.idle_bytes -= hit_bytes
                    self.allocations += allocs
                    self.allocated_bytes += alloc_bytes
                    self.live_bytes += hit_bytes + alloc_bytes
                    self.high_water_bytes = max(
                        self.high_water_bytes,
                        self.live_bytes + self.idle_bytes,
                    )
            poison = _chaos._PLAN is not None
            recorder = self._recorder
            scopes = getattr(self._tls, "scopes", None)
            if poison or recorder is not None or scopes:
                for buf in bufs:
                    if poison:
                        _chaos.maybe_poison(buf)
                    if recorder is not None:
                        recorder("acquire", buf, None)
                    if scopes:
                        scopes[-1]._live[id(buf)] = buf
        except BaseException:
            self.release_many(bufs)
            raise
        return bufs

    def release_many(self, bufs: Sequence[np.ndarray]) -> None:
        """Return buffers to the arena, taking the lock once. Releasing a
        view or releasing twice raises: the buffers ahead of the offender
        in ``bufs`` are released, the rest stay live."""
        released = 0
        try:
            with self._lock:
                idle_ids = self._idle_ids
                for buf in bufs:
                    if buf.base is not None:
                        raise ValueError(
                            "cannot release a view: later checkouts would "
                            "alias it"
                        )
                    if id(buf) in idle_ids:
                        raise ValueError("buffer released twice")
                    idle_ids.add(id(buf))
                    key = (buf.shape, buf.dtype.str)
                    free = self._free.get(key)
                    if free is None:
                        free = self._free[key] = []
                    free.append(buf)
                    # live + idle is unchanged: no new high water
                    self.live_bytes -= buf.nbytes
                    self.idle_bytes += buf.nbytes
                    released += 1
        finally:
            recorder = self._recorder
            scopes = getattr(self._tls, "scopes", None)
            if recorder is not None or scopes:
                for buf in bufs[:released]:
                    if recorder is not None:
                        recorder("release", buf, None)
                    if scopes:
                        self._untrack(buf)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "checkouts": self.checkouts,
            "reuse_hits": self.reuse_hits,
            "allocations": self.allocations,
            "allocated_bytes": self.allocated_bytes,
            "alloc_bytes_avoided": self.alloc_bytes_avoided,
            "live_bytes": self.live_bytes,
            "idle_bytes": self.idle_bytes,
            "high_water_bytes": self.high_water_bytes,
            "scope_reclaims": self.scope_reclaims,
        }

    def clear(self) -> None:
        """Drop all idle buffers (live checkouts are unaffected)."""
        with self._lock:
            self._free.clear()
            self._idle_ids.clear()
            self.idle_bytes = 0

    # ------------------------------------------------------------------
    # fork safety
    # ------------------------------------------------------------------
    def _reset_after_fork(self) -> None:
        """Give a forked child a clean arena.

        The child inherits the parent's free lists, stats and — if the
        fork happened while another thread held it — a permanently-locked
        ``threading.Lock``. Everything is replaced: a fresh lock, empty
        free lists and zeroed accounting, so the child can neither
        deadlock on the inherited lock nor double-free (or alias) buffers
        the parent still considers checked out. Inherited buffer
        references the child may still hold are copy-on-write private to
        it; releasing one simply donates it to the child's own arena.
        """
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._free = {}
        self._idle_ids = set()
        self._recorder = None
        self.scope_reclaims = 0
        self.checkouts = 0
        self.reuse_hits = 0
        self.allocations = 0
        self.allocated_bytes = 0
        self.alloc_bytes_avoided = 0
        self.live_bytes = 0
        self.idle_bytes = 0
        self.high_water_bytes = 0

    def merge_stats(self, data: Dict[str, int]) -> None:
        """Fold a worker process's pool counters into this pool's
        accounting (the process-based rank executor ships them over the
        result pipe so the report footer stays truthful). Additive
        counters sum; ``high_water_bytes`` takes the max — arenas in
        different processes are separate address spaces, so their peaks
        do not stack. Transient gauges (live/idle bytes) are per-process
        and are not merged."""
        with self._lock:
            for key in (
                "checkouts", "reuse_hits", "allocations",
                "allocated_bytes", "alloc_bytes_avoided", "scope_reclaims",
            ):
                setattr(self, key, getattr(self, key) + int(data.get(key, 0)))
            self.high_water_bytes = max(
                self.high_water_bytes, int(data.get("high_water_bytes", 0))
            )


class CancelScope:
    """See :meth:`BufferPool.cancel_scope`. ``reclaimed`` (valid after
    exit) counts the buffers returned to the arena."""

    __slots__ = ("_pool", "label", "_live", "reclaimed")

    def __init__(self, pool: BufferPool, label: str = ""):
        self._pool = pool
        self.label = label
        self._live: Dict[int, np.ndarray] = {}
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
            # clean exit: retained buffers are the caller's business,
            # but an enclosing scope must keep covering them
            for buf in leftovers:
                self._pool._track(buf)
            return False
        for buf in leftovers:
            self._pool.release(buf)
        self.reclaimed = len(leftovers)
        if leftovers:
            with self._pool._lock:
                self._pool.scope_reclaims += self.reclaimed
        return False


_POOL: BufferPool = BufferPool(
    recycle=os.environ.get("REPRO_BUFFER_POOL", "1") != "0"
)


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
