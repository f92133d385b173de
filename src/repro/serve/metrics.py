"""Serving metrics: request counters and latency/queue-wait quantiles.

One :class:`ServeMetrics` per :class:`~repro.serve.ForecastService`.
Counters follow the request lifecycle (submitted → admitted or shed →
completed / deadline-exceeded / cancelled / failed) plus the resilience
actions taken along the way (retries, degraded runs, breaker trips live
on the :class:`~repro.serve.breaker.BreakerBoard`). Latency and queue
wait are kept as bounded reservoirs so p50/p99 are exact for smoke-test
scale runs and memory-bounded for long-lived services.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

from repro.obs.counters import Counters

__all__ = ["ServeMetrics", "percentile"]


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]); None on empty input."""
    if not samples:
        return None
    ordered = sorted(samples)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float error
    return ordered[int(rank) - 1]


class _Reservoir:
    """Keep the most recent ``cap`` samples (enough for exact smoke-run
    quantiles; bounded for long services)."""

    __slots__ = ("cap", "samples", "count")

    def __init__(self, cap: int = 4096):
        self.cap = cap
        self.samples: List[float] = []
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        if len(self.samples) >= self.cap:
            self.samples.pop(0)
        self.samples.append(float(value))

    def summary(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "p50": percentile(self.samples, 50),
            "p99": percentile(self.samples, 99),
            "max": max(self.samples) if self.samples else None,
        }


class ServeMetrics:
    """One service's declared counters (``bump`` is the set's ``add``: an
    unknown name is a ``KeyError``) plus its two reservoirs."""

    COUNTERS = (
        "submitted", "admitted", "shed", "completed", "deadline_exceeded",
        "cancelled", "failed", "retries", "degraded", "batches",
        "batched_requests", "steps_computed", "steps_saved",
    )

    def __init__(self, reservoir_cap: int = 4096):
        self._lock = threading.Lock()
        self.counters = Counters(sums=self.COUNTERS)
        self.bump = self.counters.add
        self.latency = _Reservoir(reservoir_cap)
        self.queue_wait = _Reservoir(reservoir_cap)

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self.latency.add(seconds)

    def observe_queue_wait(self, seconds: float) -> None:
        with self._lock:
            self.queue_wait.add(seconds)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        out = self.counters.snapshot()
        with self._lock:
            out["latency"] = self.latency.summary()
            out["queue_wait"] = self.queue_wait.summary()
        return out
