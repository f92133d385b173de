"""SPMD rank execution on a thread pool (the strong-scaling substrate).

The paper's scaling results (Fig. 11) rest on ranks advancing
*concurrently*, with halo communication overlapped against interior
compute. This module provides the executor that turns the repo's
simulated ranks into actually parallel ones:

- :class:`RankExecutor` runs one thread per rank (SPMD), with a
  semaphore capping how many ranks *compute* at once. One thread per
  rank is mandatory — a rank blocked in a collective receive must not
  occupy the slot another rank needs to post the matching send — so the
  cap is enforced by slot handover, not by pool width.
- :func:`io_wait` releases the calling rank's compute slot for the
  duration of a blocking communicator wait and reacquires it afterwards.
  Waiting never consumes compute capacity; this is what makes the
  executor deadlock-free at any ``workers`` setting.
- Overlap accounting: the halo updater reports, per split exchange, how
  long the communication window was covered by interior compute
  (*hidden*) versus how long the rank still blocked (*exposed*).
  :func:`summary` derives the overlap efficiency shown in the obs report
  footer.

Configuration: ``REPRO_RANKS`` sets the default executor's worker cap
(default 1, i.e. the original sequential path — zero behavior change);
``REPRO_OVERLAP=0`` disables compute/communication overlap in the SPMD
dyncore path without disabling threading itself.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs import tracer as _obs

__all__ = [
    "RankExecutor",
    "current_rank",
    "get_executor",
    "configure",
    "io_wait",
    "merge_summary",
    "overlap_enabled",
    "record_overlap",
    "reset_metrics",
    "summary",
]

#: per-thread reference to the executor's compute-slot semaphore, set for
#: the duration of a rank task so ``io_wait`` can find it
_tls = threading.local()

_LOCK = threading.Lock()
_METRICS: Dict[str, float] = {
    "workers": 0,
    "sections": 0,
    "tasks": 0,
    "section_seconds": 0.0,
    "exchanges": 0,
    "hidden_seconds": 0.0,
    "exposed_seconds": 0.0,
}


def current_rank() -> Optional[int]:
    """The rank whose SPMD body the calling thread is executing, or
    ``None`` outside a parallel rank task (sequential path, main thread).

    Lets per-buffer and per-message diagnostics (the ``repro.lint``
    R4xx lifetime traces) name the owning rank without threading it
    through every call signature.
    """
    return getattr(_tls, "rank", None)


def overlap_enabled() -> bool:
    """Whether the SPMD dyncore overlaps interior compute with in-flight
    halo messages (``REPRO_OVERLAP``, default on)."""
    return os.environ.get("REPRO_OVERLAP", "1").strip().lower() not in (
        "0", "false", "no", "off"
    )


@contextmanager
def io_wait():
    """Hand back the compute slot while blocked on communication.

    No-op outside a rank task. Inside one, the surrounding executor's
    semaphore slot is released on entry and reacquired on exit, so a
    rank blocked in ``Request.wait`` never starves the ranks whose
    sends it is waiting for.
    """
    sem = getattr(_tls, "slot", None)
    if sem is None:
        yield
        return
    sem.release()
    try:
        yield
    finally:
        sem.acquire()


def record_overlap(hidden_seconds: float, exposed_seconds: float) -> None:
    """Account one split halo exchange: ``hidden`` is the communication
    window covered by interior compute, ``exposed`` the time the rank
    still blocked in waits."""
    with _LOCK:
        _METRICS["exchanges"] += 1
        _METRICS["hidden_seconds"] += hidden_seconds
        _METRICS["exposed_seconds"] += exposed_seconds


def reset_metrics() -> None:
    with _LOCK:
        for key in _METRICS:
            _METRICS[key] = 0


def merge_summary(data: Dict[str, object]) -> None:
    """Fold a worker process's executor/overlap counters into this
    process's metrics (the process-based rank executor ships each
    worker's :func:`summary` back over the result pipe). Counters add;
    ``workers`` reports the widest executor seen."""
    with _LOCK:
        _METRICS["workers"] = max(
            _METRICS["workers"], int(data.get("workers", 0) or 0)
        )
        for key in (
            "sections", "tasks", "section_seconds",
            "exchanges", "hidden_seconds", "exposed_seconds",
        ):
            _METRICS[key] += data.get(key, 0) or 0


def summary() -> Dict[str, object]:
    """Executor and overlap counters for the obs report footer.

    ``overlap_efficiency`` is hidden / (hidden + exposed) — the fraction
    of the measured communication cost covered by compute — or ``None``
    when no split exchange ran.
    """
    with _LOCK:
        out: Dict[str, object] = dict(_METRICS)
    covered = out["hidden_seconds"] + out["exposed_seconds"]
    out["overlap_efficiency"] = (
        out["hidden_seconds"] / covered if covered > 0 else None
    )
    return out


class RankExecutor:
    """Runs per-rank SPMD bodies, one thread per rank.

    ``workers`` caps concurrent *compute* (waits release their slot via
    :func:`io_wait`); ``workers == 1`` is the sequential path — rank
    bodies run inline on the calling thread in rank order, bit-identical
    to the pre-threading code.
    """

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = int(os.environ.get("REPRO_RANKS", "1") or "1")
        self.workers = max(1, int(workers))
        self._sem = threading.Semaphore(self.workers)
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

    def _ranks_to_run(self, n_ranks: int) -> Sequence[int]:
        """Which of the ``n_ranks`` SPMD bodies run here, ascending."""
        return range(n_ranks)

    def run(self, fn: Callable[[int], object], n_ranks: int,
            label: str = "ranks") -> List[object]:
        """Run ``fn(rank)`` for every rank; a barrier on completion.

        Parallel failures are collected after all ranks have finished
        (or errored), and the lowest-rank exception is re-raised — a
        deterministic choice, and it preserves ``RecoverableFault``
        types for the dyncore retry loop.
        """
        ranks = self._ranks_to_run(n_ranks)
        results: List[object] = [None] * n_ranks
        errors: List[BaseException] = []
        t0 = time.perf_counter()
        if not self.parallel or len(ranks) <= 1:
            for rank in ranks:
                results[rank] = fn(rank)
        else:
            pool = self._ensure_pool(len(ranks))
            tracer = _obs.get_tracer()
            parent = tracer.current if tracer.enabled else None
            futures = [
                pool.submit(self._run_rank, fn, rank, tracer, parent)
                for rank in ranks
            ]
            for rank, fut in zip(ranks, futures):
                try:
                    results[rank] = fut.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised below
                    errors.append(exc)
        if self.parallel:
            elapsed = time.perf_counter() - t0
            with _LOCK:
                _METRICS["workers"] = self.workers
                _METRICS["sections"] += 1
                _METRICS["tasks"] += len(ranks)
                _METRICS["section_seconds"] += elapsed
        if errors:
            raise errors[0]
        return results

    def _run_rank(self, fn, rank, tracer, parent):
        _tls.slot = self._sem
        _tls.rank = rank
        self._sem.acquire()
        try:
            if parent is not None:
                with tracer.thread_context(parent):
                    with tracer.span(f"rank[{rank}]"):
                        return fn(rank)
            return fn(rank)
        finally:
            self._sem.release()
            _tls.slot = None
            _tls.rank = None

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


_DEFAULT: Optional[RankExecutor] = None


def get_executor() -> RankExecutor:
    """The process-wide default executor (worker cap from ``REPRO_RANKS``,
    default 1 → sequential)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = RankExecutor()
    return _DEFAULT


def configure(workers: int) -> RankExecutor:
    """Replace the default executor with one capped at ``workers``."""
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.shutdown()
    _DEFAULT = RankExecutor(workers)
    return _DEFAULT
