"""Graceful degradation: a failing primary backend trips its breaker
and traffic routes to the bit-identical NumPy fallback; half-open
probes restore the primary when it heals.

What the service switches per attempt is the DSL's default backend,
and a step is orchestrated programs from end to end, which follow that
default (``compiled``: the compiled plan, else NumPy emission). The
failing primary is therefore the compiled backend with plans that fail
when they are run: the fault has to travel plan -> program -> rank
body -> step -> driver -> service, and the fallback runs other code."""

import pytest

from repro.resilience import RecoverableFault
from repro.run import run
from repro.runtime import jit
from repro.sdfg.plan import BoundPlan
from repro.serve import ForecastService, ServiceConfig


@pytest.fixture
def flaky_backend(monkeypatch, small_config):
    """The compiled backend, its plans failing on demand: a plan that
    holds C kernels fails, a NumPy plan runs. Its kernels are built
    first: a cold start runs NumPy stand-ins until they land, and the
    primary would not fail."""
    from repro.dsl import backends

    if not jit.available():
        pytest.skip("no JIT engine: compiled programs are NumPy emission")
    with backends.default_backend("compiled"):
        run("baroclinic_wave", small_config, steps=1)
    jit.wait()
    state = {"healthy": False, "calls": 0}
    run_plan = BoundPlan.__call__

    def flaky_plan(bound, *args, **kwargs):
        if bound.plan.compiled_kernels:
            state["calls"] += 1
            if not state["healthy"]:
                raise RecoverableFault("flaky backend: injected failure")
        return run_plan(bound, *args, **kwargs)

    monkeypatch.setattr(BoundPlan, "__call__", flaky_plan)
    return state


def make_service(**overrides):
    kw = dict(workers=1, backend="compiled", max_retries=2,
              breaker_threshold=2, breaker_cooldown=3600.0)
    kw.update(overrides)
    return ForecastService(ServiceConfig(**kw))


def test_breaker_trips_and_routes_to_fallback(flaky_backend, small_config):
    svc = make_service()
    try:
        response = svc.forecast("baroclinic_wave", 1, config=small_config,
                                deadline=300.0, use_cache=False)
        # the failed primary attempts tripped the breaker mid-request;
        # the surviving attempt ran degraded on the fallback
        assert response.degraded
        assert response.backend == "numpy"
        assert response.attempts == 3  # 2 primary failures + 1 fallback
        board = svc.breakers.stats()["baroclinic_wave/compiled"]
        assert board["state"] == "open"
        assert board["trips"] == 1
        # the next request degrades immediately: no failed attempt paid
        calls_before = flaky_backend["calls"]
        again = svc.forecast("baroclinic_wave", 1, config=small_config,
                             seed=5, deadline=300.0, use_cache=False)
        assert again.degraded and again.attempts == 1
        assert flaky_backend["calls"] == calls_before  # primary untouched
        assert svc.summary()["requests"]["degraded"] == 2
    finally:
        svc.close()


def test_degraded_result_bit_identical_to_numpy_direct(
        flaky_backend, small_config):
    svc = make_service()
    try:
        degraded = svc.forecast("baroclinic_wave", 2, config=small_config,
                                seed=3, deadline=300.0, use_cache=False)
        assert degraded.degraded
    finally:
        svc.close()
    direct = run("baroclinic_wave", small_config, steps=2, seed=3)
    assert degraded.report["summary"] == direct.members[0].summary
    assert degraded.report["mass_drift"] == direct.members[0].mass_drift


def test_half_open_probe_recovers_healed_primary(flaky_backend,
                                                 small_config):
    clock = FakeClock()
    svc = ForecastService(
        ServiceConfig(workers=1, backend="compiled", max_retries=2,
                      breaker_threshold=2, breaker_cooldown=10.0),
        clock=clock,
    )
    try:
        svc.forecast("baroclinic_wave", 1, config=small_config,
                     deadline=None, use_cache=False)
        breaker = svc.breakers.get("baroclinic_wave", "compiled")
        assert breaker.state == "open"
        # primary heals; after the cooldown the next request probes it
        flaky_backend["healthy"] = True
        clock.advance(11.0)
        probe = svc.forecast("baroclinic_wave", 1, config=small_config,
                             seed=7, deadline=None, use_cache=False)
        assert not probe.degraded
        assert probe.backend == "compiled"
        assert breaker.state == "closed"
        assert breaker.stats()["recoveries"] == 1
    finally:
        svc.close()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
