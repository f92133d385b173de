"""End-to-end :class:`ForecastService` behaviour: admission, warm
drivers, the state cache, deadlines, cancellation, shutdown."""

import re
import threading

import pytest

from repro.dsl import UnknownBackendError
from repro.obs.render import _footer
from repro.run import metrics, run
from repro.runtime import compile_cache
from repro.serve import (
    DeadlineExceeded,
    ForecastRequest,
    ForecastService,
    Overloaded,
    RequestCancelled,
    ServiceClosed,
    ServiceConfig,
    serving_summary,
)


@pytest.fixture
def service(small_config):
    svc = ForecastService(ServiceConfig(workers=2, batch_max=4))
    yield svc
    svc.close()


def _req(small_config, steps=2, **kw):
    kw.setdefault("deadline", 300.0)
    return ForecastRequest("baroclinic_wave", steps, config=small_config,
                           **kw)


def test_forecast_matches_direct_run_bit_identical(service, small_config):
    """The serving path is a transport, not a model change: its answer
    equals the classic ``repro.run`` facade's, summary for summary."""
    before = metrics.summary()
    response = service.forecast("baroclinic_wave", 2, config=small_config,
                                seed=3, member=1, deadline=300.0)
    # the warm engine was built from this request's own state: stepped in
    # place, copied once, out, when its slot was freed
    after = metrics.summary()
    assert [after[f"state_copies_{way}"] - before[f"state_copies_{way}"]
            for way in ("in", "out")] == [0, 1]
    direct = run("baroclinic_wave", small_config, steps=2, members=(1,),
                 seed=3)
    assert response.report["summary"] == direct.members[0].summary
    assert response.report["mass_drift"] == direct.members[0].mass_drift
    assert response.step == 2
    assert response.cache == "miss"
    assert response.attempts == 1 and not response.degraded


def test_repeat_query_served_from_cache_with_zero_model_work(
        service, small_config):
    first = service.submit(_req(small_config)).result()
    assert first.cache == "miss" and first.steps_computed == 2
    misses = compile_cache.stats()["misses"]
    again = service.submit(_req(small_config)).result()
    assert again.cache == "hit"
    assert again.steps_computed == 0
    assert compile_cache.stats()["misses"] == misses  # nothing compiled
    assert again.report["summary"] == first.report["summary"]
    assert service.cache.stats()["hits"] == 1


def test_longer_lead_warm_starts_from_cached_step(service, small_config):
    service.submit(_req(small_config, steps=2)).result()
    deeper = service.submit(_req(small_config, steps=3)).result()
    assert deeper.cache == "warm"
    assert deeper.steps_computed == 1  # only the remainder
    direct = run("baroclinic_wave", small_config, steps=3)
    assert deeper.report["summary"] == direct.members[0].summary


def test_warm_start_from_a_packed_entry_equals_a_direct_run_in_full_state(
        service, small_config):
    """A member warm-started from a packed cache entry and stepped on
    holds, on every array of every rank, halos included, the bits of a
    direct ``run()`` of the same total steps. Its final state is what
    the service caches for the deeper lead, packed again."""
    first = service.submit(_req(small_config, steps=2, seed=3,
                                member=1)).result()
    deeper = service.submit(_req(small_config, steps=4, seed=3,
                                 member=1)).result()
    assert (first.cache, deeper.cache) == ("miss", "warm")
    assert deeper.steps_computed == 2
    cached = service.cache.exact(("baroclinic_wave", small_config, 3, 1), 4)
    assert (cached.snapshot.step, cached.snapshot.time) == (
        deeper.step, deeper.report["time"])
    arrays, tracers = cached.snapshot.materialize()
    direct = run("baroclinic_wave", small_config, steps=4, members=(1,),
                 seed=3).member(1)
    assert len(arrays) == len(direct.states) == small_config.total_ranks
    for state, fields, ts in zip(direct.states, arrays, tracers):
        for name, arr in fields.items():
            want = getattr(state, name)
            assert arr.shape == want.shape
            assert arr.tobytes() == want.tobytes(), name
        assert len(ts) == len(state.tracers) == small_config.n_tracers
        for got, want in zip(ts, state.tracers):
            assert got.tobytes() == want.tobytes()


def test_cache_counters_and_footer_show_the_packing(service, small_config):
    service.submit(_req(small_config)).result()
    held = service.cache.stats()
    assert held["entries"] == 1
    assert 0 < held["bytes"] < 0.85 * held["raw_bytes"]
    totals = serving_summary()["cache"]
    assert totals["bytes"] >= held["bytes"]
    assert totals["raw_bytes"] >= held["raw_bytes"]
    (line,) = [ln for ln in _footer() if ln.startswith("serving: ")]
    match = re.search(r"\bentries (\d+), bytes \d+, raw_bytes \d+, "
                      r"hit_ratio [\d.]+, pack_ratio ([\d.]+)\)", line)
    assert match and int(match.group(1)) >= 1
    assert float(match.group(2)) > 1.15


def test_cache_bypass_recomputes(service, small_config):
    service.submit(_req(small_config)).result()
    bypass = service.submit(_req(small_config, use_cache=False)).result()
    assert bypass.cache == "bypass" and bypass.steps_computed == 2


def test_a_service_without_a_cache_computes_every_request(small_config):
    """``cache_entries=0`` turns the state cache off: a repeated request
    is computed again, and nothing is kept."""
    svc = ForecastService(ServiceConfig(workers=1, cache_entries=0))
    try:
        first = svc.submit(_req(small_config)).result()
        again = svc.submit(_req(small_config)).result()
    finally:
        svc.close()
    assert first.cache == again.cache == "bypass"
    assert again.steps_computed == 2
    assert again.report["summary"] == first.report["summary"]
    assert svc.summary()["cache"]["entries"] == 0


def test_warm_driver_reused_across_requests(service, small_config):
    service.submit(_req(small_config, seed=1, use_cache=False)).result()
    service.submit(_req(small_config, seed=2, use_cache=False)).result()
    assert len(service._drivers) == 1  # one engine served both
    # and its slots were released after each request
    ((driver, _),) = service._drivers.values()
    assert driver.member_ids == ()


def test_admission_sheds_typed_overloaded_when_queue_full(small_config):
    svc = ForecastService(ServiceConfig(workers=1, max_queue=1,
                                        batch_max=1))
    try:
        tickets, shed = [], 0
        for seed in range(8):
            try:
                tickets.append(svc.submit(
                    _req(small_config, steps=1, seed=seed)
                ))
            except Overloaded as exc:
                shed += 1
                assert exc.max_queue == 1
                assert exc.queue_depth >= 1
        assert shed >= 1
        for t in tickets:
            t.result(timeout=300)
        summary = svc.summary()["requests"]
        assert summary["shed"] == shed
        assert summary["completed"] == len(tickets)
    finally:
        svc.close()


def test_inflight_budget_sheds(small_config):
    svc = ForecastService(ServiceConfig(workers=1, max_inflight=1))
    try:
        first = svc.submit(_req(small_config, steps=1))
        with pytest.raises(Overloaded):
            svc.submit(_req(small_config, steps=1, seed=1))
        first.result(timeout=300)
    finally:
        svc.close()


def test_deadline_exceeded_is_typed_and_phase_attributed(small_config):
    svc = ForecastService(ServiceConfig(workers=1))
    try:
        with pytest.raises(DeadlineExceeded) as exc_info:
            svc.forecast("baroclinic_wave", 500, config=small_config,
                         deadline=0.2)
        err = exc_info.value
        assert err.deadline == 0.2
        assert err.phase in ("queue", "warm", "steps")
        assert set(err.phases) <= {"queue", "warm", "steps"}
        assert svc.summary()["requests"]["deadline_exceeded"] == 1
        # the worker is NOT wedged: the next request still completes
        ok = svc.forecast("baroclinic_wave", 1, config=small_config,
                          deadline=300.0)
        assert ok.step == 1
    finally:
        svc.close()


def test_cancellation_before_execution(small_config):
    import dataclasses

    other = dataclasses.replace(small_config, dt_atmos=600.0)
    svc = ForecastService(ServiceConfig(workers=1))
    try:
        blocker = svc.submit(_req(small_config, steps=4, use_cache=False))
        # different config: never fused into the blocker's batch, so it
        # waits in the queue while the blocker runs
        victim = svc.submit(_req(other, steps=2))
        assert victim.cancel()
        with pytest.raises(RequestCancelled):
            victim.result(timeout=300)
        blocker.result(timeout=300)
        assert svc.summary()["requests"]["cancelled"] == 1
    finally:
        svc.close()


def test_cancel_after_completion_returns_false(service, small_config):
    ticket = service.submit(_req(small_config, steps=1))
    ticket.result(timeout=300)
    assert not ticket.cancel()
    assert ticket.result().step == 1  # result still readable


def test_close_rejects_new_requests_and_is_idempotent(small_config):
    svc = ForecastService(ServiceConfig(workers=1))
    svc.forecast("baroclinic_wave", 1, config=small_config)
    svc.close()
    svc.close()
    with pytest.raises(ServiceClosed):
        svc.submit(_req(small_config))


def test_concurrent_clients_all_complete(service, small_config):
    """Eight client threads, mixed seeds and leads — every request gets
    a typed outcome and completed ones are internally consistent."""
    results, errors = {}, {}

    def client(i):
        try:
            results[i] = service.submit(
                _req(small_config, steps=1 + i % 3, seed=i % 4,
                     member=i % 2)
            ).result(timeout=300)
        except Exception as exc:  # typed serving errors only
            errors[i] = exc

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(results) == 8
    for i, response in results.items():
        assert response.step == 1 + i % 3
        assert response.member == i % 2
    # identical (seed, member, steps) queries agree exactly
    by_key = {}
    for i, response in results.items():
        key = (i % 4, i % 2, 1 + i % 3)
        by_key.setdefault(key, []).append(response.report["summary"])
    for summaries in by_key.values():
        assert all(s == summaries[0] for s in summaries)


def test_batched_requests_counted(service, small_config):
    tickets = [
        service.submit(_req(small_config, steps=1, seed=s,
                            use_cache=False))
        for s in range(4)
    ]
    for t in tickets:
        t.result(timeout=300)
    summary = service.summary()["requests"]
    # at least some of the queued-together requests were fused
    assert summary["completed"] == 4
    assert summary["batches"] >= 0  # counter exists; fusion is timing-dependent


def test_request_validates_steps():
    with pytest.raises(ValueError):
        ForecastRequest("baroclinic_wave", 0)


def test_an_unknown_backend_is_refused_at_construction():
    """A misspelt ``ServiceConfig.backend`` fails typed before any
    worker starts, not at the first request."""
    workers = threading.active_count()
    with pytest.raises(UnknownBackendError) as exc_info:
        ForecastService(ServiceConfig(backend="nunpy"))
    assert exc_info.value.suggestion == "numpy"
    assert threading.active_count() == workers
