"""A finished run, a closed driver and a closed service are freed by
reference counting, the moment the last reference goes.

Every test here runs with the cyclic collector off: what it holds must
die without it. It then asks the collector what it *would* have freed
(``gc.DEBUG_SAVEALL``): no object of a class defined in ``repro`` may be
among it — an engine, a module, a program's state, a cache — because
what only the collector frees stays resident until it happens to run.
"""

import gc
import hashlib
import weakref

import pytest

from repro.fv3.config import DynamicalCoreConfig
from repro.resilience import GuardConfig, ResilienceConfig
from repro.run import EnsembleDriver, build_core, metrics, run
from repro.runtime import compile_cache
from repro.serve import ForecastService, ServiceConfig


def _config():
    return DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
        n_tracers=1,
    )


@pytest.fixture
def no_collector():
    gc.collect()  # what earlier tests left to the collector
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _repro_garbage():
    """The ``repro`` classes of what a collection would free now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted({
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if (getattr(type(obj), "__module__", None) or "")
            .startswith("repro")
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _refs(engine):
    """Weak references to an engine and to what a run's memory is."""
    return [
        weakref.ref(engine),
        weakref.ref(engine.grids[0]),
        weakref.ref(engine.grids[0].area),
        weakref.ref(engine.states[0].delp),
        weakref.ref(engine.states[0].tracers[0]),
    ]


def _digest(states) -> str:
    sha = hashlib.sha256()
    for state in states:
        for name in ("u", "v", "w", "pt", "delp", "delz"):
            sha.update(getattr(state, name).tobytes())
        for tracer in state.tracers:
            sha.update(tracer.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("kwargs", [
    {},
    {"executor": "threads"},
    {"members": 2},
    {"resilience": ResilienceConfig(guard=GuardConfig(policy="rollback"))},
    {"executor": "processes", "workers": 2},
], ids=["sequential", "threads", "two_members", "rollback_guards",
        "processes"])
def test_a_finished_run_dies_with_its_result(no_collector, kwargs):
    result = run("baroclinic_wave", _config(), steps=1, **kwargs)
    refs = _refs(result.engine)
    result = run("baroclinic_wave", _config(), steps=1, **kwargs)
    assert [ref() is None for ref in refs] == [True] * len(refs)
    del result
    assert _repro_garbage() == []


def test_a_closed_driver_dies_when_dropped(no_collector):
    driver = EnsembleDriver("baroclinic_wave", _config(), members=2,
                            executor="threads", diagnostics=False)
    driver.step(1)
    refs = _refs(driver.engine)
    driver.close()
    # a closed driver releases the step machinery of the engine it built
    assert driver.engine.acoustics is None
    del driver
    assert [ref() is None for ref in refs] == [True] * len(refs)
    assert _repro_garbage() == []


def test_a_closed_service_dies_when_dropped(no_collector):
    service = ForecastService(ServiceConfig(workers=1))
    response = service.forecast("baroclinic_wave", steps=1,
                                config=_config())
    assert response.cache == "miss"
    (driver, _), = service._drivers.values()
    refs = _refs(driver.engine)
    del driver
    cache = weakref.ref(service.cache)
    entry = next(iter(service.cache._entries.values()))
    snapshot = weakref.ref(entry.snapshot.arrays[0]["delp"])
    del entry
    service.close()
    del service
    assert [ref() is None for ref in refs] == [True] * len(refs)
    assert cache() is None and snapshot() is None
    assert _repro_garbage() == []


def test_engines_built_and_freed_are_counted():
    """Three runs, only the last result kept, never a collection: two
    engines freed, one alive (a leak would read freed 0)."""
    before = metrics.summary()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            result = run("baroclinic_wave", _config(), steps=1)
        after = metrics.summary()
    finally:
        if enabled:
            gc.enable()
    assert after["engines_built"] - before["engines_built"] == 3
    assert after["engines_freed"] - before["engines_freed"] == 2
    assert after["engines_alive"] - before["engines_alive"] == 1
    assert result.engine is not None


def test_a_released_engine_steps_again_from_the_caches():
    """What a result keeps is states, grids and the halo updater; a
    driver handed the engine rebuilds the rest — binding its programs,
    tracing none — and steps bit for bit like a fresh core."""
    result = run("baroclinic_wave", _config(), steps=1)
    engine = result.engine
    assert engine.acoustics is None
    assert engine.remap is None and engine.tracer_adv is None
    assert engine.halo.comm.message_sizes()
    traces = compile_cache.stats()["program_traces"]
    driver = EnsembleDriver("baroclinic_wave", _config(), members=(),
                            engine=engine, diagnostics=False)
    driver.add_member(0)
    driver.step(1)
    assert compile_cache.stats()["program_traces"] == traces
    driver.close()
    # the engine is the result's: the driver that was handed it keeps it
    assert engine.acoustics is not None
    fresh = build_core("baroclinic_wave", _config())
    fresh.step_dynamics()
    assert _digest(driver.members[0].states) == _digest(fresh.states)
