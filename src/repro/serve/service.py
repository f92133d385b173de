"""The forecast front door: admission, batching, SLO enforcement.

:class:`ForecastService` turns the batch experiment machinery
(:class:`~repro.run.EnsembleDriver`) into a long-lived request/response
service without giving up any of its guarantees:

- **Admission control.** Requests enter a bounded queue; when the queue
  or the in-flight budget is full the request is *shed* with a typed
  :class:`~repro.serve.errors.Overloaded` before any model work is done
  — under overload the service degrades to fast rejections, never to
  unbounded latency.
- **Warm drivers.** Worker threads batch compatible requests (same
  scenario + config) onto a warm :class:`EnsembleDriver` kept per
  (scenario, config). The driver's engine — geometry, orchestrated
  stencil suite, compiled programs, pooled buffers — is built on the
  first request and reused for every subsequent one; request states are
  swapped through it as dynamic member slots. A request's state remains
  a pure function of its (scenario, config, seed, member): the slot id
  never feeds the numerics.
- **State cache.** Completed lead times are snapshotted, packed, into
  a :class:`~repro.serve.cache.StateCache`. A repeat query is answered
  from the cache with zero model work; a deeper query warm-starts from
  the closest cached step and computes only the remainder.
- **Deadline budgets.** Each request carries a
  :class:`~repro.serve.budget.DeadlineBudget` started at submission.
  Queue wait, warm-up and every model step are charged to named phases;
  the step loop checks the budget cooperatively between steps, so an
  exhausted request fails with a phase-attributed
  :class:`~repro.serve.errors.DeadlineExceeded` while its worker moves
  on. Cancellation never interrupts a step, and a step that raises has
  already returned its scratch: every take of the arena is given back
  by its own ``finally``, so a cancelled, expired or failed request
  leaves no pool memory behind and wedges no worker.
- **Bounded retries.** Recoverable model faults (chaos-injected
  bit flips, guard-triggered rollbacks that exhausted the engine-level
  retry budget) are retried at once at the service level, up to
  ``max_retries`` times per request: the in-process transport has
  nothing to wait for.
- **Graceful degradation.** A :class:`~repro.serve.breaker.BreakerBoard`
  keyed by (scenario, backend) counts consecutive primary-backend
  failures; a tripped breaker routes steps to the NumPy fallback, which
  is bit-identical by the backend contract — degraded means slower,
  never different. Half-open probes restore the primary automatically.

Everything is observable: per-request spans land in the
:mod:`repro.obs` tracer, and the service's counters feed the serving
footer of :func:`repro.obs.report`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
import weakref
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.dsl import backends as _backends
from repro.dsl.stencil import FALLBACK_BACKEND
from repro.obs import tracer as _obs
from repro.obs.counters import Counters
from repro.resilience import (
    GuardConfig,
    GuardError,
    RecoverableFault,
    ResilienceConfig,
    RetriesExhaustedError,
    Snapshot,
)
from repro.run import EnsembleDriver, build_core, member_rng
from repro.serve.breaker import BreakerBoard
from repro.serve.budget import DeadlineBudget
from repro.serve.cache import CacheEntry, StateCache, with_hit_ratio
from repro.serve.errors import (
    DeadlineExceeded,
    Overloaded,
    RequestCancelled,
    RequestFailed,
    ServeError,
    ServiceClosed,
)
from repro.serve.metrics import ServeMetrics, percentile

__all__ = [
    "ForecastRequest",
    "ForecastResponse",
    "ForecastService",
    "ForecastTicket",
    "ServiceConfig",
    "serving_summary",
]

_TRACER = _obs.get_tracer()

#: faults the service-level retry loop is allowed to absorb: chaos-
#: injected recoverable faults, engine retry budgets running dry, and
#: guard trips that escaped the engine (``policy="raise"``)
_RETRYABLE = (RecoverableFault, RetriesExhaustedError, GuardError)

#: live services, for the obs report's serving footer
_SERVICES: "weakref.WeakSet[ForecastService]" = weakref.WeakSet()


@dataclasses.dataclass(frozen=True)
class ForecastRequest:
    """One forecast query.

    Attributes:
        scenario: registered scenario name.
        steps: requested lead time in physics steps (>= 1).
        config: optional :class:`~repro.fv3.DynamicalCoreConfig`
            override (None = the scenario's default).
        seed: ensemble root seed.
        member: ensemble member id (0 = unperturbed control).
        deadline: wall-clock budget in seconds, measured from
            submission (None = the service default; ``inf`` disables).
        use_cache: serve/seed from the state cache (exact hits and
            warm starts). Disable for cache-bypass measurements.
    """

    scenario: str
    steps: int
    config: object = None
    seed: int = 0
    member: int = 0
    deadline: Optional[float] = None
    use_cache: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclasses.dataclass
class ForecastResponse:
    """The forecast answer plus its serving provenance."""

    request_id: int
    scenario: str
    member: int
    seed: int
    step: int
    report: Dict[str, object]
    backend: str
    degraded: bool
    cache: str                    # "hit" | "warm" | "miss" | "bypass"
    attempts: int
    steps_computed: int
    latency: float
    queue_wait: float
    phases: Dict[str, float]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs (see ``docs/serving.md`` for tuning guidance).

    Attributes:
        max_queue: bounded admission queue; a full queue sheds.
        max_inflight: cap on admitted-but-unfinished requests.
        workers: worker threads pulling batches off the queue.
        batch_max: max compatible requests fused into one warm-driver
            batch.
        max_retries: service-level re-attempts per request on
            recoverable model faults, each at once.
        breaker_threshold / breaker_cooldown: consecutive failures that
            trip a (scenario, backend) breaker, and the open→half-open
            cooldown in seconds.
        backend: primary backend name, checked when the service is
            constructed (None = the process default at that moment).
            The degradation target is
            :data:`repro.dsl.stencil.FALLBACK_BACKEND`, bit-identical.
        cache_entries / cache_bytes: :class:`StateCache` budget
            (``cache_entries=0`` disables caching entirely).
            ``cache_bytes`` bounds the entries' packed bytes
            (:class:`~repro.resilience.PackedSnapshot`, 1.6x below
            the states' raw bytes at c24·L10).

    A warm engine steps its ranks in lockstep under rollback guards with
    the engine's own retry budget, so injected faults are caught and
    rolled back *inside* a step before the service-level retry loop ever
    sees them: a response never silently carries a NaN a guard would
    have caught.
    """

    max_queue: int = 64
    max_inflight: int = 128
    workers: int = 2
    batch_max: int = 4
    max_retries: int = 2
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    backend: Optional[str] = None
    cache_entries: int = 64
    cache_bytes: int = 512 * 1024 * 1024


class ForecastTicket:
    """A client's handle on one submitted request."""

    def __init__(self, request_id: int, request: ForecastRequest):
        self.request_id = request_id
        self.request = request
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._response: Optional[ForecastResponse] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False

    def cancel(self) -> bool:
        """Request cancellation; returns True if the request had not
        finished yet (the worker honours it at the next step
        boundary)."""
        with self._lock:
            if self._event.is_set():
                return False
            self._cancelled = True
            return True

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ForecastResponse:
        """Block for the response; raises the typed serving error on
        failure, or ``TimeoutError`` if the wait itself times out."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._response

    # worker side -------------------------------------------------------
    def _resolve(self, response: Optional[ForecastResponse] = None,
                 error: Optional[BaseException] = None) -> None:
        with self._lock:
            self._response = response
            self._error = error
            self._event.set()


class _Entry:
    """Worker-side bookkeeping for one admitted request."""

    __slots__ = ("request", "ticket", "budget", "submitted_at", "slot",
                 "attempts", "steps_computed", "degraded", "cache",
                 "backend", "queue_wait")

    def __init__(self, request: ForecastRequest, ticket: ForecastTicket,
                 budget: DeadlineBudget, submitted_at: float):
        self.request = request
        self.ticket = ticket
        self.budget = budget
        self.submitted_at = submitted_at
        self.slot: Optional[int] = None
        self.attempts = 1
        self.steps_computed = 0
        self.degraded = False
        self.cache = "bypass"
        self.backend = ""
        self.queue_wait = 0.0


class ForecastService:
    """See the module docstring. ``clock`` is injectable for
    deterministic tests (deadlines, breaker cooldowns)."""

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config or ServiceConfig()
        if self.config.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._clock = clock
        self.metrics = ServeMetrics()
        self.cache = StateCache(self.config.cache_entries,
                                self.config.cache_bytes)
        self.breakers = BreakerBoard(self.config.breaker_threshold,
                                     self.config.breaker_cooldown, clock)
        # the primary backend is pinned at construction so a concurrent
        # degraded batch (which flips the process default under a lock)
        # cannot change what "primary" means for everyone else
        self._primary = (
            _backends.check_backend(self.config.backend)
            if self.config.backend else _backends.default_backend()
        )
        self._resilience = ResilienceConfig(
            guard=GuardConfig(policy="rollback")
        )
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._queue: "deque[_Entry]" = deque()
        self._inflight = 0
        self._closed = False
        self._next_request_id = 0
        self._next_slot = 0
        # one warm driver per (scenario, config), plus its use lock:
        # the driver swaps members through a single engine, so two
        # workers holding batches with the same key must interleave
        # per-operation, never overlap
        self._drivers: Dict[
            Tuple[str, object], Tuple[EnsembleDriver, threading.Lock]
        ] = {}
        self._driver_lock = threading.Lock()
        #: per warm driver, the snapshot a failed step is retried from
        self._before: Dict[EnsembleDriver, Snapshot] = {}
        # explicit-backend execution serializes on this lock because the
        # DSL default-backend switch is process-global; results are
        # unaffected either way (backends are bit-identical)
        self._backend_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"forecast-worker-{i}",
                daemon=True,
            )
            for i in range(max(1, self.config.workers))
        ]
        for t in self._workers:
            t.start()
        _SERVICES.add(self)

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, request: ForecastRequest) -> ForecastTicket:
        """Admit one request; returns a ticket immediately.

        Raises :class:`ServiceClosed` after :meth:`close`, and
        :class:`Overloaded` when the queue or in-flight budget is full
        — shedding happens here, before any model work.
        """
        self.metrics.bump("submitted")
        now = self._clock()
        with self._cv:
            if self._closed:
                raise ServiceClosed("service is closed")
            if (
                len(self._queue) >= self.config.max_queue
                or self._inflight >= self.config.max_inflight
            ):
                self.metrics.bump("shed")
                raise Overloaded(
                    len(self._queue), self.config.max_queue,
                    self._inflight, self.config.max_inflight,
                )
            self._next_request_id += 1
            request_id = self._next_request_id
            ticket = ForecastTicket(request_id, request)
            entry = _Entry(
                request, ticket,
                DeadlineBudget(request.deadline, request_id, self._clock),
                now,
            )
            self._queue.append(entry)
            self._inflight += 1
            self.metrics.bump("admitted")
            self._cv.notify()
        return ticket

    def forecast(self, scenario: str, steps: int,
                 **kwargs) -> ForecastResponse:
        """Submit-and-wait convenience for synchronous callers."""
        return self.submit(
            ForecastRequest(scenario, steps, **kwargs)
        ).result()

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """This service's counters for footers and smoke benchmarks."""
        return {
            "requests": self.metrics.summary(),
            "cache": self.cache.stats(),
            "breakers": self.breakers.totals(),
            "breaker_detail": self.breakers.stats(),
            "drivers": len(self._drivers),
            "primary_backend": self._primary,
            "fallback_backend": FALLBACK_BACKEND,
        }

    def close(self, wait: bool = True) -> None:
        """Stop admitting; drain the queue (``wait=True``) and release
        the warm drivers. Idempotent."""
        with self._cv:
            if self._closed and not self._workers:
                return
            self._closed = True
            self._cv.notify_all()
        if wait:
            for t in self._workers:
                t.join()
        self._workers = []
        # anything still queued (close(wait=False)) fails typed
        while True:
            with self._cv:
                if not self._queue:
                    break
                entry = self._queue.popleft()
            self._fail(entry, ServiceClosed(
                f"request {entry.ticket.request_id}: service closed "
                "before execution"
            ))
        with self._driver_lock:
            drivers, self._drivers = list(self._drivers.values()), {}
            self._before = {}
        for driver, _ in drivers:
            driver.close()

    def __enter__(self) -> "ForecastService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            try:
                self._process_batch(batch)
            except BaseException as exc:  # never kill a worker silently
                for entry in batch:
                    if not entry.ticket.done():
                        self._fail(entry, RequestFailed(
                            entry.ticket.request_id, entry.attempts, exc
                        ))

    def _take_batch(self) -> Optional[List[_Entry]]:
        """Pop the oldest request plus up to ``batch_max - 1`` queued
        requests compatible with it (same scenario + config), so one
        warm driver serves them step-major."""
        with self._cv:
            while not self._queue:
                if self._closed:
                    return None
                self._cv.wait()
            head = self._queue.popleft()
            key = (head.request.scenario, head.request.config)
            batch = [head]
            kept: "deque[_Entry]" = deque()
            while self._queue and len(batch) < self.config.batch_max:
                entry = self._queue.popleft()
                if (entry.request.scenario, entry.request.config) == key:
                    batch.append(entry)
                else:
                    kept.append(entry)
            self._queue.extendleft(reversed(kept))
        if len(batch) > 1:
            self.metrics.bump("batches")
            self.metrics.bump("batched_requests", len(batch))
        return batch

    def _driver_for(
        self, request: ForecastRequest
    ) -> Tuple[EnsembleDriver, threading.Lock]:
        """The warm driver (and its use lock) for this (scenario,
        config): built — engine compile and all — on first use, reused
        for every later batch. The engine is built from the request's
        own initial state, which its member slot then takes."""
        key = (request.scenario, request.config)
        with self._driver_lock:
            cached = self._drivers.get(key)
            if cached is None:
                with _TRACER.span("serve.warm_engine"):
                    engine = build_core(
                        request.scenario,
                        request.config,
                        member=request.member,
                        seed=request.seed,
                        resilience=self._resilience,
                    )
                    driver = EnsembleDriver(
                        request.scenario,
                        request.config,
                        members=(),
                        engine=engine,
                        resilience=self._resilience,
                        diagnostics=False,
                    )
                cached = (driver, threading.Lock())
                self._drivers[key] = cached
            return cached

    def _process_batch(self, batch: List[_Entry]) -> None:
        now = self._clock()
        driver: Optional[EnsembleDriver] = None
        dlock: Optional[threading.Lock] = None
        active: List[_Entry] = []
        for entry in batch:
            entry.queue_wait = now - entry.submitted_at
            entry.budget.charge("queue", entry.queue_wait)
            self.metrics.observe_queue_wait(entry.queue_wait)
            if entry.ticket.cancelled:
                self._fail(entry, RequestCancelled(
                    entry.ticket.request_id, "queued"
                ))
                continue
            if entry.budget.exhausted:
                self._fail(entry, entry.budget.exceeded("queue"))
                continue
            try:
                with _TRACER.span("serve.request"):
                    if driver is None:
                        with entry.budget.phase("warm"):
                            driver, dlock = self._driver_for(entry.request)
                    if self._install(driver, dlock, entry):
                        active.append(entry)
            except ServeError as exc:
                self._fail(entry, exc)
            except BaseException as exc:
                self._fail(entry, RequestFailed(
                    entry.ticket.request_id, entry.attempts, exc
                ))
        if driver is None:
            return
        # step-major sweeps: every active request advances one step per
        # sweep; finished / expired / cancelled ones drop out. Two
        # workers batching the same (scenario, config) interleave their
        # sweeps through the shared driver via its lock.
        while active:
            for entry in list(active):
                try:
                    with _TRACER.span("serve.request"):
                        self._advance(driver, dlock, entry)
                except ServeError as exc:
                    active.remove(entry)
                    self._evict(driver, dlock, entry)
                    self._fail(entry, exc)
                except BaseException as exc:
                    active.remove(entry)
                    self._evict(driver, dlock, entry)
                    self._fail(entry, RequestFailed(
                        entry.ticket.request_id, entry.attempts, exc
                    ))
                else:
                    if driver.members[entry.slot].step_count \
                            >= entry.request.steps:
                        active.remove(entry)
                        self._finish(driver, dlock, entry)

    # ------------------------------------------------------------------
    def _series_key(self, request: ForecastRequest):
        return (request.scenario, request.config, request.seed,
                request.member)

    def _install(self, driver: EnsembleDriver, dlock: threading.Lock,
                 entry: _Entry) -> bool:
        """Give the request a member slot in the warm driver — from the
        cache when possible. Returns False when the request was answered
        outright from an exact cache hit."""
        request = entry.request
        with self._lock:
            self._next_slot += 1
            entry.slot = self._next_slot
        if request.use_cache and self.cache.max_entries > 0:
            series = self._series_key(request)
            exact = self.cache.exact(series, request.steps)
            if exact is not None:
                entry.cache = "hit"
                entry.backend = "cache"
                self.metrics.bump("steps_saved", request.steps)
                self._respond(entry, dict(exact.report))
                return False
            warm, warm_step = self.cache.best_at_or_below(
                series, request.steps
            )
            if warm is not None:
                entry.cache = "warm"
                self.metrics.bump("steps_saved", warm_step)
                with entry.budget.phase("warm"):
                    # unpacked before the driver lock is taken; the new
                    # member adopts these arrays as its storage
                    packed = warm.snapshot
                    ready = Snapshot(*packed.materialize(), packed.time,
                                     packed.step)
                    with dlock:
                        driver.add_member(
                            entry.slot,
                            snapshot=ready,
                            adopt=True,
                            mass0=warm.mass0,
                            tracer0=warm.tracer0,
                        )
                entry.budget.check("warm")
                return True
            entry.cache = "miss"
        with entry.budget.phase("warm"), dlock:
            driver.add_member(
                entry.slot,
                rng=member_rng(request.seed, request.member),
            )
        entry.budget.check("warm")
        return True

    @contextlib.contextmanager
    def _on_backend(self, backend: str):
        """Run under an explicit DSL default backend. The switch is
        process-global, so it is serialized; the pinned-at-construction
        ambient default runs lock-free."""
        if backend == _backends.default_backend():
            yield
            return
        with self._backend_lock:
            with _backends.default_backend(backend):
                yield

    def _advance(self, driver: EnsembleDriver, dlock: threading.Lock,
                 entry: _Entry) -> None:
        """One model step for one request: cooperative cancellation and
        deadline checks, breaker-routed backend choice, service-level
        retry on recoverable faults.

        The engine steps the member's only copy, so a step that raises
        loses it (:class:`~repro.resilience.MemberLostError`): each
        attempt snapshots the member first, and a failed one re-installs
        that snapshot in the slot before the retry."""
        if entry.ticket.cancelled:
            raise RequestCancelled(entry.ticket.request_id, "stepping")
        breaker = self.breakers.get(entry.request.scenario, self._primary)
        while True:
            entry.budget.check("steps")
            on_primary = breaker.allow_primary()
            backend = self._primary if on_primary else FALLBACK_BACKEND
            if not on_primary and not entry.degraded:
                entry.degraded = True
                self.metrics.bump("degraded")
            try:
                with entry.budget.phase("steps"), dlock:
                    before = self._before_step(driver, entry.slot)
                    try:
                        with self._on_backend(backend):
                            driver.step_selected([entry.slot], 1)
                    except _RETRYABLE:
                        lost = driver.remove_member(entry.slot)
                        driver.add_member(
                            entry.slot, snapshot=before,
                            mass0=lost.mass0, tracer0=lost.tracer0,
                        )
                        raise
            except _RETRYABLE as exc:
                if on_primary:
                    breaker.record_failure()
                if entry.attempts > self.config.max_retries:
                    raise RequestFailed(
                        entry.ticket.request_id, entry.attempts, exc
                    )
                entry.attempts += 1
                self.metrics.bump("retries")
                continue
            if on_primary:
                breaker.record_success()
            entry.backend = backend
            entry.steps_computed += 1
            self.metrics.bump("steps_computed")
            return

    def _before_step(self, driver: EnsembleDriver, slot: int) -> Snapshot:
        """The member in ``slot`` as it stands, in the driver's one
        pre-step snapshot: taken by the driver's first step, recaptured
        in place by every later one (steps hold the driver's lock)."""
        before = self._before.get(driver)
        if before is None:
            before = self._before[driver] = driver.snapshot_member(slot)
        else:
            rec = driver.members[slot]
            before.recapture(rec.states, rec.time, rec.step_count)
        return before

    def _finish(self, driver: EnsembleDriver, dlock: threading.Lock,
                entry: _Entry) -> None:
        """Build the response, cache the final state, free the slot."""
        request = entry.request
        with dlock:
            report = driver.member_report(entry.slot)
            report["member"] = request.member
            # removed, the record owns its arrays
            rec = driver.remove_member(entry.slot)
        if request.use_cache and self.cache.max_entries > 0:
            # packed outside the lock; the record's arrays are dropped
            # before the client hears back
            self.cache.put(
                self._series_key(request),
                rec.step_count,
                CacheEntry(
                    Snapshot.adopt(rec.states, rec.time,
                                   rec.step_count).pack(),
                    rec.mass0, rec.tracer0, dict(report),
                ),
            )
        del rec
        self._respond(entry, report)

    def _evict(self, driver: EnsembleDriver, dlock: threading.Lock,
               entry: _Entry) -> None:
        """Drop a failed/cancelled request's slot (if it got one)."""
        with dlock:
            if entry.slot is not None and entry.slot in driver.members:
                driver.remove_member(entry.slot)

    # ------------------------------------------------------------------
    def _respond(self, entry: _Entry, report: Dict[str, object]) -> None:
        entry.budget._close_phase()
        latency = self._clock() - entry.submitted_at
        response = ForecastResponse(
            request_id=entry.ticket.request_id,
            scenario=entry.request.scenario,
            member=entry.request.member,
            seed=entry.request.seed,
            step=int(report.get("step", entry.request.steps)),
            report=report,
            backend=entry.backend,
            degraded=entry.degraded,
            cache=entry.cache,
            attempts=entry.attempts,
            steps_computed=entry.steps_computed,
            latency=latency,
            queue_wait=entry.queue_wait,
            phases=dict(entry.budget.phases),
        )
        self.metrics.bump("completed")
        self.metrics.observe_latency(latency)
        entry.ticket._resolve(response=response)
        with self._cv:
            self._inflight -= 1

    def _fail(self, entry: _Entry, error: BaseException) -> None:
        if isinstance(error, DeadlineExceeded):
            self.metrics.bump("deadline_exceeded")
        elif isinstance(error, RequestCancelled):
            self.metrics.bump("cancelled")
        else:
            self.metrics.bump("failed")
        latency = self._clock() - entry.submitted_at
        self.metrics.observe_latency(latency)
        entry.ticket._resolve(error=error)
        with self._cv:
            self._inflight -= 1


def serving_summary() -> Optional[Dict[str, object]]:
    """Aggregated counters across every live :class:`ForecastService`
    in the process, or None when no service has handled traffic (the
    obs report's serving footer)."""
    pairs = [
        (s, s.summary()) for s in _SERVICES
    ]
    pairs = [
        (s, summary) for s, summary in pairs
        if summary["requests"]["submitted"]
    ]
    if not pairs:
        return None
    summaries = [summary for _, summary in pairs]
    requests = Counters(sums=ServeMetrics.COUNTERS)
    for summary in summaries:
        requests.merge(summary["requests"])
    totals: Dict[str, object] = {
        "services": len(summaries), **requests.snapshot(),
    }
    for reservoir in ("latency", "queue_wait"):
        # smoke-scale exactness: merge the raw reservoirs
        merged: List[float] = []
        for service, _ in pairs:
            with service.metrics._lock:
                source = (
                    service.metrics.latency if reservoir == "latency"
                    else service.metrics.queue_wait
                )
                merged.extend(source.samples)
        totals[reservoir] = {
            "p50": percentile(merged, 50),
            "p99": percentile(merged, 99),
        }
    # what each service's cache holds adds up across services too
    caches = Counters(sums=StateCache.COUNTED + ("entries", "bytes",
                                                 "raw_bytes"),
                      derive=with_hit_ratio)
    for summary in summaries:
        caches.merge(summary["cache"])
    totals["cache"] = caches.snapshot()
    totals["breakers"] = {
        key: sum(s["breakers"][key] for s in summaries)
        for key in ("trips", "probes", "recoveries", "open")
    }
    return totals
