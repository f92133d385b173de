"""The OpenMP width of the compiled kernels: rank threads share the
cores as worker processes do, and the width never changes a bit."""

import hashlib
import threading

import pytest

from repro.dsl import backends
from repro.run import build_core
from repro.runtime import compile_cache, jit
from repro.scenarios import available_scenarios, get_scenario
from repro.sdfg.plan import CompiledPlan

STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")

pytestmark = pytest.mark.skipif(
    jit.engine_name() != "cgen", reason="needs the C engine (OpenMP)"
)


@pytest.fixture
def compiled(monkeypatch):
    """The compiled backend, on plans built inside the test."""
    monkeypatch.setattr(backends, "_default_backend", "compiled")
    compile_cache.reset(clear=True)
    yield
    compile_cache.reset(clear=True)


def _core(scenario="baroclinic_wave", executor="sequential", workers=None):
    config = get_scenario(scenario).default_config(npx=12, npz=4)
    return build_core(scenario, config, executor=executor, workers=workers)


def _finish(core):
    core.finalize()
    core.executor.shutdown()


@pytest.mark.parametrize("executor, workers, width", [
    ("sequential", None, 2),
    ("threads", 2, 1),
])
def test_rank_threads_split_the_kernel_threads(compiled, monkeypatch,
                                               executor, workers, width):
    """``REPRO_THREADS=2``: a kernel called on the main thread opens two
    threads, one called on either of two rank threads opens one — 2
    threads on the 2 cores, not 4. Captured at the C entry point."""
    monkeypatch.setenv("REPRO_THREADS", "2")
    seen = []
    lock = threading.Lock()
    entry = CompiledPlan._entry

    def capturing(self, index):
        fn = entry(self, index)

        def call(*args):
            with lock:
                seen.append(args[-1])
            return fn(*args)

        return call

    monkeypatch.setattr(CompiledPlan, "_entry", capturing)
    core = _core(executor=executor, workers=workers)
    try:
        core.step_dynamics()
    finally:
        _finish(core)
    assert seen and set(seen) == {width}


def _digest(core) -> str:
    h = hashlib.sha256()
    for state in core.states:
        for array in [getattr(state, f) for f in STATE_FIELDS] \
                + list(state.tracers):
            h.update(array.tobytes())
    return h.hexdigest()


def test_kernel_threads_do_not_change_the_state(compiled, monkeypatch):
    """The kernels hold no reductions: a step on one kernel thread and on
    two ends on the same bits, in every scenario."""
    digests = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("REPRO_THREADS", threads)
        for scenario in available_scenarios():
            core = _core(scenario)
            try:
                core.step_dynamics()
                digests[threads, scenario] = _digest(core)
            finally:
                _finish(core)
    for scenario in available_scenarios():
        assert digests["1", scenario] == digests["2", scenario], scenario
