"""SPMD rank execution: one rank body, scheduled two ways.

The paper's scaling results (Fig. 11) rest on every rank running the
*same* body, with halo communication overlapped against interior
compute. :class:`RankExecutor` decides how those bodies are scheduled,
never which body runs:

- **Lockstep** (``workers == 1``, or a single rank to run): all bodies
  advance on the calling thread. A body that communicates is a
  generator that ``yield``s wherever it is about to wait on messages its
  peers post before *their* matching ``yield``; every body reaches its
  next ``yield`` before any goes past it, so each wait finds its message
  already posted. A body that does not communicate is a plain function.
  A rank worker process runs its block of the ranks this way too: the
  messages of its own ranks are posted before any of them waits, and a
  wait on another worker's rank blocks until that worker posts.
- **Rank threads** (``workers > 1``): one thread per rank runs a body to
  its end and blocks in its waits — the ``yield``s are no-ops. There are
  ``workers`` compute slots, and a rank computes only while it holds
  one. One thread per rank is mandatory — a rank blocked in a receive
  must not occupy the slot another rank needs to post the matching send
  — so the cap is enforced by slot handover, not by pool width:
  :func:`io_wait` hands the calling rank's slot back for the duration of
  a blocking communicator wait and takes one again afterwards. The
  cores are shared the same way: a compiled kernel called on a rank
  thread opens ``1/workers`` of the OpenMP team one thread would
  (:func:`kernel_threads`), as worker processes split it.

A compute slot is a scratch worker of :mod:`repro.runtime.pool`: whoever
holds the slot takes its scratch from that worker's slabs, so the slabs
travel with the slot (one worker under lockstep, ``workers`` under rank
threads) and the arena is as large as the executor is wide.

No span may be open across a ``yield``: under lockstep the bodies share
one thread's span stack.

Overlap accounting: the halo updater reports, per split exchange and
under every schedule, how long the communication window was covered by
compute (*hidden*) versus how long the rank still blocked (*exposed*).
:func:`summary` derives the overlap efficiency shown in the obs report
footer.

A core runs lockstep unless it is handed an executor with more workers
(``executor=`` of ``DynamicalCore``, ``repro.run.run`` and the drivers).
"""

from __future__ import annotations

import inspect
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.obs import tracer as _obs
from repro.obs.counters import Counters, register
from repro.runtime import pool as _pool

__all__ = [
    "RankExecutor",
    "io_wait",
    "kernel_threads",
    "record_overlap",
    "reset_metrics",
    "summary",
]

#: per-thread reference to the executor's idle compute slots, set for the
#: duration of a rank task so ``io_wait`` can hand the slot back
_tls = threading.local()


def _with_efficiency(snapshot: Dict[str, object]) -> Dict[str, object]:
    """``overlap_efficiency`` is hidden / (hidden + exposed) — the
    fraction of the measured communication cost covered by compute — or
    ``None`` when no split exchange ran."""
    covered = snapshot["hidden_seconds"] + snapshot["exposed_seconds"]
    snapshot["overlap_efficiency"] = (
        snapshot["hidden_seconds"] / covered if covered > 0 else None
    )
    return snapshot


#: executor and overlap counters for the obs report footer; ``workers``
#: is the widest executor seen
COUNTERS = register("ranks", Counters(
    sums=(
        "sections", "tasks", "section_seconds",
        "exchanges", "hidden_seconds", "exposed_seconds",
    ),
    peaks=("workers",),
    derive=_with_efficiency,
))
_N = COUNTERS.values
summary = COUNTERS.snapshot
reset_metrics = COUNTERS.reset


def kernel_threads(default: int) -> int:
    """The OpenMP width of a compiled kernel called on this thread: on a
    rank thread its share of the kernel threads (``default_threads() //
    workers``, at least one), elsewhere ``default``."""
    return getattr(_tls, "threads", None) or default


@contextmanager
def io_wait():
    """Hand back the compute slot, and its scratch worker, while blocked
    on communication: a no-op outside a rank task. Inside one the slot
    goes back on entry and one is taken on exit, so a blocked rank never
    starves the ranks whose sends it waits for. A rank that holds a take
    (waits inside a program call) raises instead: its live slab would go
    to another rank."""
    idle = getattr(_tls, "idle", None)
    if idle is None:
        yield
        return
    if _pool.current().depth:
        raise RuntimeError("a rank waits holding scratch (in a program)")
    idle.put(_pool.bind(None))
    try:
        yield
    finally:
        _pool.bind(idle.get())


def record_overlap(hidden_seconds: float, exposed_seconds: float) -> None:
    """Account one split halo exchange: ``hidden`` is the communication
    window covered by interior compute, ``exposed`` the time the rank
    still blocked in waits."""
    with COUNTERS.lock:
        _N["exchanges"] += 1
        _N["hidden_seconds"] += hidden_seconds
        _N["exposed_seconds"] += exposed_seconds


class RankExecutor:
    """Schedules per-rank SPMD bodies (see the module docstring).

    ``workers`` caps concurrent *compute* (a wait hands on the slot and
    its scratch, :func:`io_wait`); ``workers == 1`` drives the bodies in
    lockstep on the calling thread, in rank order between ``yield``s.
    """

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        #: the scratch worker of each compute slot, and those no rank holds
        self.scratch = [_pool.Worker(_pool.get_pool())
                        for _ in range(self.workers)]
        self._idle = queue.SimpleQueue()
        for worker in self.scratch:
            self._idle.put(worker)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_width = 0
        self._lock = threading.Lock()

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _ensure_pool(self, n_ranks: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None or self._pool_width < n_ranks:
                if self._pool is not None:
                    self._pool.shutdown(wait=True)
                self._pool = ThreadPoolExecutor(
                    max_workers=n_ranks, thread_name_prefix="repro-rank"
                )
                self._pool_width = n_ranks
            return self._pool

    def run(self, fn: Callable[[int], object],
            ranks: Union[int, Sequence[int]],
            label: str = "ranks") -> List[object]:
        """Run the body ``fn(rank)`` of every rank in ``ranks`` (a count
        ``n`` means ranks ``0..n-1``; a core that holds a block of the
        ranks passes the block, ascending); a barrier on completion.
        ``fn`` is a plain function or a generator function; its
        ``return`` values come back in the order of ``ranks``.

        Rank-thread failures are collected after all ranks have finished
        (or errored), and the lowest-rank exception is re-raised — a
        deterministic choice, and it preserves ``RecoverableFault``
        types for the dyncore retry loop. Under lockstep the first
        failure closes the other bodies (their ``finally`` blocks run)
        and is re-raised.
        """
        if isinstance(ranks, int):
            ranks = range(ranks)
        results: Dict[int, object] = {}
        t0 = time.perf_counter()
        try:
            if not self.parallel or len(ranks) <= 1:
                with self._slot():
                    self._run_lockstep(fn, ranks, results)
            else:
                self._run_threads(fn, ranks, results)
        finally:
            with COUNTERS.lock:
                _N["workers"] = max(_N["workers"], self.workers)
                _N["sections"] += 1
                _N["tasks"] += len(ranks)
                _N["section_seconds"] += time.perf_counter() - t0
        return [results[rank] for rank in ranks]

    def _run_threads(self, fn, ranks, results) -> None:
        """Every body on a rank thread of its own; the lowest rank's
        failure re-raised once all have finished."""
        from repro.runtime.jit import default_threads

        errors: List[BaseException] = []
        pool = self._ensure_pool(len(ranks))
        threads = max(1, default_threads() // self.workers)
        tracer = _obs.get_tracer()
        parent = tracer.current if tracer.enabled else None
        futures = [
            pool.submit(self._run_rank, fn, rank, threads, results, tracer,
                        parent)
            for rank in ranks
        ]
        for fut in futures:
            try:
                fut.result()
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]

    @staticmethod
    def _run_lockstep(fn, ranks, results) -> None:
        """Advance every body to its next ``yield`` before any goes past
        it, in rank order, until all have returned. (A rank thread is
        the one-body case: it runs through the ``yield``s and blocks in
        the waits themselves.)"""
        live = {}
        try:
            for rank in ranks:
                out = fn(rank)
                if inspect.isgenerator(out):
                    live[rank] = out
                else:
                    results[rank] = out
            while live:
                for rank in list(live):
                    try:
                        next(live[rank])
                    except StopIteration as stop:
                        results[rank] = stop.value
                        del live[rank]
        finally:
            for body in live.values():
                body.close()

    @contextmanager
    def _slot(self):
        """Hold a compute slot, its worker the thread's, for the block."""
        previous = _pool.bind(self._idle.get())
        try:
            yield
        finally:
            self._idle.put(_pool.bind(previous))

    @contextmanager
    def idle_scratch(self):
        """Every slot's worker, once no rank holds it, kept from the ranks
        for the block (a core sizes, binds and trims them)."""
        with self._lock:
            held = [self._idle.get() for _ in self.scratch]
        try:
            yield held
        finally:
            for worker in held:
                self._idle.put(worker)

    def _run_rank(self, fn, rank, threads, results, tracer, parent):
        _tls.idle = self._idle
        _tls.threads = threads
        try:
            with self._slot():
                if parent is not None:
                    with tracer.thread_context(parent):
                        with tracer.span(f"rank[{rank}]"):
                            self._run_lockstep(fn, (rank,), results)
                else:
                    self._run_lockstep(fn, (rank,), results)
        finally:
            _tls.idle = None
            _tls.threads = None

    def shutdown(self) -> None:
        """Join the worker threads (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_width = 0

    def __repr__(self) -> str:
        mode = "parallel" if self.parallel else "sequential"
        return f"RankExecutor(workers={self.workers}, {mode})"

