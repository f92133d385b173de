"""Per-request deadline budgets.

A :class:`DeadlineBudget` is one request's wall-clock allowance,
decremented across named phases (queue wait, state warm-up, the step
loop). Phases are charged where the time is actually spent, so a
:class:`~repro.serve.errors.DeadlineExceeded` names the guilty phase —
"spent 4.8 s of a 5 s budget queued" reads very differently from
"spent it compiling".
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.serve.errors import DeadlineExceeded

__all__ = ["DeadlineBudget"]


class DeadlineBudget:
    """A request's wall-clock budget, phase-attributed.

    ``clock`` is injectable for tests (defaults to
    :func:`time.monotonic`). ``None``/``inf`` deadline disables
    enforcement but still records the phase breakdown.
    """

    def __init__(self, deadline: Optional[float], request_id: int = 0,
                 clock: Callable[[], float] = time.monotonic):
        self.deadline = (
            float("inf") if deadline is None else float(deadline)
        )
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        self.request_id = request_id
        self._clock = clock
        self._start = clock()
        self.phases: Dict[str, float] = {}
        self._phase_name: Optional[str] = None
        self._phase_start = 0.0

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        """Seconds left (may be negative once overdrawn)."""
        return self.deadline - self.elapsed()

    @property
    def exhausted(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, phase: Optional[str] = None) -> float:
        """Return the remaining budget, or raise
        :class:`DeadlineExceeded` attributing the current phase."""
        remaining = self.remaining()
        if remaining <= 0.0:
            blamed = phase or self._phase_name or "unknown"
            self._close_phase()
            raise DeadlineExceeded(
                self.request_id, self.deadline, self.elapsed(),
                blamed, self.phases,
            )
        return remaining

    # ------------------------------------------------------------------
    def phase(self, name: str) -> "_PhaseGuard":
        """Enter a named accounting phase (context manager). Phases are
        sequential, not nested: entering one closes the previous."""
        return _PhaseGuard(self, name)

    def _open_phase(self, name: str) -> None:
        self._close_phase()
        self._phase_name = name
        self._phase_start = self._clock()

    def _close_phase(self) -> None:
        if self._phase_name is not None:
            spent = self._clock() - self._phase_start
            self.phases[self._phase_name] = (
                self.phases.get(self._phase_name, 0.0) + spent
            )
            self._phase_name = None

    def charge(self, name: str, seconds: float) -> None:
        """Attribute externally measured time (e.g. queue wait) to a
        phase without running inside it."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def exceeded(self, phase: Optional[str] = None) -> DeadlineExceeded:
        """Build the typed error for the current state (for callers
        that detect exhaustion themselves)."""
        blamed = phase or self._phase_name or "unknown"
        self._close_phase()
        return DeadlineExceeded(
            self.request_id, self.deadline, self.elapsed(),
            blamed, self.phases,
        )


class _PhaseGuard:
    __slots__ = ("_budget", "_name")

    def __init__(self, budget: DeadlineBudget, name: str):
        self._budget = budget
        self._name = name

    def __enter__(self) -> DeadlineBudget:
        self._budget._open_phase(self._name)
        return self._budget

    def __exit__(self, *exc) -> bool:
        self._budget._close_phase()
        return False
