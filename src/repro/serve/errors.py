"""Typed error taxonomy of the forecast serving layer.

Every way a request can fail to produce a forecast is a distinct type,
so clients can dispatch on the class instead of parsing messages:

- :class:`Overloaded` — admission control refused the request *before*
  any work was done (bounded queue full, or the in-flight budget is
  exhausted). The request is safe to retry against another replica or
  after backoff; the error carries the observed depths and limits.
- :class:`DeadlineExceeded` — the request was admitted but its deadline
  budget ran out mid-flight; the phase breakdown says where the time
  went. The worker that was running it is *not* wedged: the step loop
  checks the budget cooperatively between steps, and every scratch take
  a step makes is given back by that take's own ``finally``.
- :class:`RequestCancelled` — the client cancelled the ticket before
  completion.
- :class:`RequestFailed` — the model itself failed after the service's
  retry budget (service-level rollback-retry on recoverable faults) and
  degradation path were both exhausted; ``last`` is the final cause.
- :class:`ServiceClosed` — submit after :meth:`ForecastService.close`.

``ServeError`` is the common base. ``Overloaded``/``DeadlineExceeded``
mirror the taxonomy every RPC system ships (UNAVAILABLE/
DEADLINE_EXCEEDED) so the serving layer composes with real front ends.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "DeadlineExceeded",
    "Overloaded",
    "RequestCancelled",
    "RequestFailed",
    "ServeError",
    "ServiceClosed",
]


class ServeError(RuntimeError):
    """Base class of all serving-layer errors."""


class Overloaded(ServeError):
    """Admission control shed the request (retry later / elsewhere)."""

    def __init__(self, queue_depth: int, max_queue: int,
                 inflight: int, max_inflight: int):
        self.queue_depth = queue_depth
        self.max_queue = max_queue
        self.inflight = inflight
        self.max_inflight = max_inflight
        super().__init__(
            f"service overloaded: queue {queue_depth}/{max_queue}, "
            f"in flight {inflight}/{max_inflight}"
        )


class DeadlineExceeded(ServeError):
    """The request's deadline budget ran out (``phases`` says where)."""

    def __init__(self, request_id: int, deadline: float, elapsed: float,
                 phase: str, phases: Optional[Dict[str, float]] = None):
        self.request_id = request_id
        self.deadline = deadline
        self.elapsed = elapsed
        self.phase = phase
        self.phases = dict(phases or {})
        spent = ", ".join(
            f"{name}={seconds:.3f}s" for name, seconds in self.phases.items()
        ) or "(no phases recorded)"
        super().__init__(
            f"request {request_id}: deadline {deadline:.3f}s exceeded "
            f"after {elapsed:.3f}s in phase {phase!r} [{spent}]"
        )


class RequestCancelled(ServeError):
    """The client cancelled the ticket before the request completed."""

    def __init__(self, request_id: int, phase: str = "queued"):
        self.request_id = request_id
        self.phase = phase
        super().__init__(
            f"request {request_id}: cancelled while {phase}"
        )


class RequestFailed(ServeError):
    """Retries and degradation exhausted; ``last`` is the final cause."""

    def __init__(self, request_id: int, attempts: int,
                 last: BaseException):
        self.request_id = request_id
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"request {request_id}: failed after {attempts} attempt(s); "
            f"last failure: {type(last).__name__}: {last}"
        )


class ServiceClosed(ServeError):
    """The service is shut down and admits no new requests."""
