"""repro.serve — the forecast serving layer with SLO enforcement.

The batch machinery answers "run this experiment"; this package answers
"keep answering forecast queries, under load, within deadlines, while
things break". One front door::

    from repro.serve import ForecastRequest, ForecastService

    with ForecastService() as svc:
        ticket = svc.submit(
            ForecastRequest("baroclinic_wave", steps=4, deadline=30.0)
        )
        response = ticket.result()
        print(response.report["mass_drift"], response.latency)

The pieces (see ``docs/serving.md`` for the full SLO model):

- :class:`ForecastService` — bounded-queue admission with load
  shedding, worker threads batching compatible requests onto warm
  :class:`~repro.run.EnsembleDriver` engines, a checkpoint-warmed
  :class:`~repro.serve.cache.StateCache` for repeat queries.
- :class:`~repro.serve.budget.DeadlineBudget` — phase-attributed
  deadline budgets; recoverable faults are retried at once, up to
  ``ServiceConfig.max_retries``.
- :class:`~repro.serve.breaker.CircuitBreaker` /
  :class:`~repro.serve.breaker.BreakerBoard` — per (scenario, backend)
  breakers routing to the bit-identical NumPy fallback when a primary
  backend keeps failing.
- the typed error taxonomy in :mod:`repro.serve.errors` —
  :class:`Overloaded`, :class:`DeadlineExceeded`,
  :class:`RequestCancelled`, :class:`RequestFailed`,
  :class:`ServiceClosed`.

:func:`serving_summary` aggregates every live service's counters for
the :func:`repro.obs.report` serving footer.
"""

from __future__ import annotations

from repro.serve.breaker import BreakerBoard, CircuitBreaker
from repro.serve.budget import DeadlineBudget
from repro.serve.cache import CacheEntry, StateCache
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    RequestCancelled,
    RequestFailed,
    ServeError,
    ServiceClosed,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.service import (
    ForecastRequest,
    ForecastResponse,
    ForecastService,
    ForecastTicket,
    ServiceConfig,
    serving_summary,
)

__all__ = [
    "BreakerBoard",
    "CacheEntry",
    "CircuitBreaker",
    "DeadlineBudget",
    "DeadlineExceeded",
    "ForecastRequest",
    "ForecastResponse",
    "ForecastService",
    "ForecastTicket",
    "Overloaded",
    "RequestCancelled",
    "RequestFailed",
    "ServeError",
    "ServeMetrics",
    "ServiceClosed",
    "ServiceConfig",
    "StateCache",
    "serving_summary",
]
