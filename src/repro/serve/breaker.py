"""Per-(scenario, backend) circuit breakers for graceful degradation.

The classic three-state machine:

- **closed** — requests run on the primary backend. Consecutive
  failures are counted; reaching ``threshold`` trips the breaker.
- **open** — requests route straight to the bit-exact NumPy fallback
  backend without touching the primary (the whole point: a broken JIT
  toolchain or a poisoned compile cache must not cost every request a
  failed attempt + retry). After ``cooldown`` seconds the breaker
  half-opens.
- **half-open** — exactly one probe request is allowed through to the
  primary. Success closes the breaker (recovery); failure re-opens it
  and restarts the cooldown.

Because every repro backend is bit-identical by contract (the
31-stencil suite asserts exact equality), degradation changes *where*
the arithmetic runs, never *what* it produces — a degraded response is
bit-identical to the NumPy backend run directly. That turns the usual
"degraded = approximate" trade into "degraded = slower", which is the
only trade a deterministic forecast service can afford.

Breakers are keyed by (scenario, backend): a broken compiled kernel
for one scenario's stencil suite must not degrade every other
scenario's traffic.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Tuple

__all__ = ["BreakerOpen", "CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class BreakerOpen(RuntimeError):
    """Internal signal: the primary path is vetoed right now."""


class CircuitBreaker:
    """One breaker (see module docstring). Thread-safe; ``clock`` is
    injectable so tests drive the cooldown without sleeping."""

    def __init__(self, threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        # counters for the serving footer
        self.trips = 0
        self.probes = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = HALF_OPEN
        return self._state

    # ------------------------------------------------------------------
    def allow_primary(self) -> bool:
        """Whether this request may use the primary backend.

        In half-open state only one concurrent caller gets ``True`` (the
        probe); everyone else keeps degrading until the probe reports.
        """
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                self.probes += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self.recoveries += 1
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            state = self._effective_state()
            if state == HALF_OPEN:
                # failed probe: back to open, restart the cooldown
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_inflight = False
                self.trips += 1
                return
            self._consecutive_failures += 1
            if (
                state == CLOSED
                and self._consecutive_failures >= self.threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self.trips += 1

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "probes": self.probes,
                "recoveries": self.recoveries,
            }


class BreakerBoard:
    """The service's breaker registry, keyed by (scenario, backend)."""

    def __init__(self, threshold: int = 3, cooldown: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def get(self, scenario: str, backend: str) -> CircuitBreaker:
        key = (scenario, backend)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.threshold, self.cooldown, self._clock
                )
                self._breakers[key] = breaker
            return breaker

    def stats(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            items = list(self._breakers.items())
        return {
            f"{scenario}/{backend}": breaker.stats()
            for (scenario, backend), breaker in items
        }

    def totals(self) -> Dict[str, int]:
        with self._lock:
            breakers = list(self._breakers.values())
        return {
            "trips": sum(b.trips for b in breakers),
            "probes": sum(b.probes for b in breakers),
            "recoveries": sum(b.recoveries for b in breakers),
            "open": sum(1 for b in breakers if b.state != CLOSED),
        }
