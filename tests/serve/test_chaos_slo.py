"""The SLO holds under seeded chaos: every request completes within its
deadline, nothing is lost, and the answers are bit-identical to a
fault-free run — the serving layer composes admission, engine-level
rollback and service-level retry into an envelope the chaos plan cannot
pierce."""

import pytest

from repro import resilience
from repro.resilience import chaos
from repro.serve import ForecastRequest, ForecastService, ServiceConfig

#: five seeded faults across three sites, hitting the early stencil /
#: pool / halo traffic of the run
CHAOS_SPEC = "seed=7;stencil.nanflip@5,60;pool.poison@3;halo.corrupt@2,9"


def _requests(small_config):
    return [
        ForecastRequest("baroclinic_wave", steps=1 + i % 2,
                        config=small_config, seed=i % 3, deadline=300.0,
                        use_cache=False)
        for i in range(6)
    ]


def test_seeded_chaos_stays_within_slo(small_config):
    chaos.set_plan(chaos.ChaosPlan.from_spec(CHAOS_SPEC))
    svc = ForecastService(ServiceConfig(workers=2, max_retries=3))
    try:
        tickets = [svc.submit(r) for r in _requests(small_config)]
        responses = [t.result(timeout=300) for t in tickets]  # zero lost
    finally:
        svc.close()
    plan = chaos.get_plan()
    assert len(plan.injected) >= 3  # the plan really fired
    counters = resilience.summary()["counters"]
    recovered = (
        counters["rollbacks"] + counters["retries"]
        + counters["halo_redeliveries"] + counters["fallbacks"]
    )
    assert recovered >= 1  # recovery work actually happened
    summary = svc.summary()["requests"]
    assert summary["completed"] == 6
    assert summary["deadline_exceeded"] == 0
    assert summary["failed"] == 0
    for response in responses:
        # a served forecast never carries a NaN a guard should have
        # caught
        for value in response.report["summary"].values():
            assert value == value


def test_chaos_recovered_answers_are_bit_identical_to_clean(small_config):
    def serve_one():
        svc = ForecastService(ServiceConfig(workers=1, max_retries=3))
        try:
            return svc.forecast(
                "baroclinic_wave", 2, config=small_config,
                deadline=300.0, use_cache=False,
            )
        finally:
            svc.close()

    clean = serve_one()
    chaos.set_plan(chaos.ChaosPlan.from_spec("seed=7;stencil.nanflip@26"))
    faulty = serve_one()
    chaos.clear_plan()
    assert faulty.report["summary"] == clean.report["summary"]
    assert faulty.report["mass_drift"] == clean.report["mass_drift"]
    counters = resilience.summary()["counters"]
    assert counters["guard_trips"] >= 1
    assert counters["rollbacks"] >= 1


def test_a_step_that_fails_half_way_is_retried_from_its_snapshot(
    small_config, monkeypatch,
):
    """The engine steps a request's only copy: a fault that escapes the
    engine after the state was written loses it, and the service retries
    from the snapshot it took before the step — same answer, one more
    attempt."""
    from repro.fv3.dyncore import DynamicalCore
    from repro.resilience import GuardError

    def serve_one():
        svc = ForecastService(ServiceConfig(workers=1, max_retries=1))
        try:
            return svc.forecast("baroclinic_wave", 2, config=small_config,
                                seed=2, member=1, deadline=300.0,
                                use_cache=False)
        finally:
            svc.close()

    clean = serve_one()
    real = DynamicalCore._remapping_step
    calls = []

    def write_then_fail(self, dt):
        real(self, dt)
        calls.append(dt)
        if len(calls) == 2:  # the second step, after its writes
            raise GuardError(["injected after the state was written"])

    monkeypatch.setattr(DynamicalCore, "_remapping_step", write_then_fail)
    faulty = serve_one()
    assert (clean.attempts, faulty.attempts) == (1, 2)
    assert faulty.report == clean.report


def test_unrecoverable_chaos_fails_typed_not_wedged(small_config):
    """A fault rate high enough to exhaust both retry budgets must
    surface as a typed failure — and the worker must survive it."""
    from repro.serve import RequestFailed

    chaos.set_plan(chaos.ChaosPlan.from_spec(
        "seed=1;stencil.nanflip:p=1.0"
    ))
    svc = ForecastService(ServiceConfig(workers=1, max_retries=1))
    try:
        with pytest.raises(RequestFailed) as exc_info:
            svc.forecast("baroclinic_wave", 1, config=small_config,
                         deadline=300.0)
        assert exc_info.value.attempts == 2
        chaos.clear_plan()
        ok = svc.forecast("baroclinic_wave", 1, config=small_config,
                          deadline=300.0)
        assert ok.step == 1  # the worker lived on
    finally:
        svc.close()
    assert svc.summary()["requests"]["failed"] == 1
    assert svc.summary()["requests"]["retries"] == 1
