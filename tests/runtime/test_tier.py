"""The tiered cold start: a ``compiled`` core whose kernels are not on
disk runs NumPy plans while the background builder compiles them, and
switches each program to C at the first step boundary after its kernels
have landed (``DynamicalCore.prepare``, ``jit.batch(background=True)``).
The answer is the C answer bit for bit, a primed process does what it
did before the tier existed, and no compiler outlives its process."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.dsl import backends
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.run import build_core, run
from repro.runtime import compile_cache as cc
from repro.runtime import jit
from repro.scenarios import available_scenarios, get_scenario

FIELDS = ("u", "v", "w", "pt", "delp", "delz")

pytestmark = pytest.mark.skipif(jit._find_cc() is None,
                                reason="no C compiler")


@pytest.fixture()
def empty_store(monkeypatch, tmp_path):
    """The C engine on an empty kernel store and no template in memory:
    what a fresh process on a fresh directory starts from."""
    monkeypatch.setenv("REPRO_JIT", "cgen")
    jit.reset(engine=True)
    monkeypatch.setattr(backends, "_default_backend", "compiled")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    monkeypatch.setattr(jit, "_KERNELS", {})
    monkeypatch.setattr(jit, "_OBJECTS", {})
    cc.reset(clear=True)
    yield tmp_path
    cc.reset(clear=True)
    monkeypatch.delenv("REPRO_JIT", raising=False)
    jit.reset(engine=True)


def _states(states):
    return [
        [getattr(s, name) for name in FIELDS] + list(s.tracers)
        for s in states
    ]


def _assert_same(got, want):
    for a, b in zip(got, want):
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("scenario,executor", [
    pytest.param(
        scenario, executor,
        # tier-1 samples every scenario and every executor; ``--deep``
        # runs the whole matrix (a cold leg builds all of its kernels)
        marks=() if executor == "sequential"
        or scenario == "baroclinic_wave" else pytest.mark.deep,
    )
    for scenario in available_scenarios()
    for executor in ("sequential", "threads", "processes")
])
def test_a_cold_run_answers_what_a_primed_one_does(
    empty_store, scenario, executor
):
    """Cold, with every slab NaN-poisoned, then primed and clean: the
    same member states bit for bit, whichever plans the cold run's steps
    took."""
    config = get_scenario(scenario).default_config(npx=12, npz=4)
    kwargs = dict(steps=2, seed=3, executor=executor)
    chaos.set_plan(ChaosPlan.from_spec("pool.poison:p=1.0"))
    try:
        cold = run(scenario, config, **kwargs)
    finally:
        chaos.set_plan(None)
    if executor != "processes":  # (workers count for themselves)
        assert cc.stats()["standins"] > 0
    jit.wait()
    cc.reset(clear=True)
    jit.reset()
    primed = run(scenario, config, **kwargs)
    assert cc.stats()["standins"] == 0
    assert jit.stats()["background_builds"] == 0
    assert cold.ok and primed.ok
    for a, b in zip(cold.members, primed.members):
        _assert_same(_states(a.states), _states(b.states))


def test_a_cold_core_switches_every_program_that_missed(empty_store):
    """A cold default core steps on its stand-ins, then — its kernels
    landed — switches every program that missed to C at the next step
    boundary, and steps to the state of a primed core. The primed core
    hands nothing to the builder, stands nothing in and swaps nothing."""
    config = get_scenario("baroclinic_wave").default_config()
    assert (config.npx, config.npz) == (24, 10)
    cold = build_core("baroclinic_wave", config, executor="sequential")
    primed = None
    try:
        cold.step_dynamics()
        jit.wait()
        assert cc.stats()["plan_swaps"] == 0
        cold.step_dynamics()
        stats = cc.stats()
        assert stats["misses"] == stats["standins"] == 4
        assert stats["plan_swaps"] == stats["misses"]
        assert jit.stats()["background_builds"] == 1
        for rank in cold.ranks:
            for call, _ in cold.step_programs(rank):
                for binding in call.func._state.bindings.values():
                    assert binding.plan.compiled_kernels
        cc.reset(clear=True)
        jit.reset()
        primed = build_core("baroclinic_wave", config, executor="sequential")
        primed.step_dynamics()
        primed.step_dynamics()
        assert cc.stats()["plan_swaps"] == cc.stats()["standins"] == 0
        assert jit.stats()["background_builds"] == 0
        assert jit.stats()["builds"] == 0
        _assert_same(_states(cold.states), _states(primed.states))
    finally:
        for core in (cold, primed):
            if core is not None:
                core.finalize()
                core.executor.shutdown()


#: one cold run(), then the interpreter exits at once
COLD_RUN = """
import json
from repro.run import run
from repro.runtime import jit
from repro.scenarios import get_scenario

config = get_scenario("baroclinic_wave").default_config(npx=12, npz=4)
run("baroclinic_wave", config, steps=1)
print(json.dumps({"in_flight": jit._BUILDER is not None,
                  "jit": jit.COUNTERS.snapshot()}))  # (stats() would wait)
"""


def test_a_process_that_exits_mid_build_leaves_its_kernels_behind(
    tmp_path, tmp_path_factory
):
    """A process that exits right after one cold ``run()`` — its build
    still running, behind a compiler that takes two seconds per unit —
    waits for the build at interpreter exit: no compiler is left
    running, no temporary beside the store, and the next process
    builds nothing."""
    real = jit._find_cc()
    slow = tmp_path_factory.mktemp("bin") / "slowcc"
    slow.write_text(
        "#!/bin/sh\n"
        'case "$*" in *repro_o_*) sleep 2;; esac\n'
        f'exec {real} "$@"\n'
    )
    slow.chmod(0o755)
    script, store = tmp_path / "cold.py", tmp_path / "store"
    script.write_text(COLD_RUN)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_BACKEND="compiled", REPRO_JIT="cgen", REPRO_CC=str(slow),
               REPRO_THREADS="1", REPRO_JIT_DIR=str(store))

    def child():
        out = subprocess.run([sys.executable, str(script)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.splitlines()[-1])

    cold = child()
    assert cold["in_flight"] and cold["jit"]["background_builds"] == 1
    assert cold["jit"]["kernels_built"] == 0
    assert [p.name for p in store.iterdir() if ".tmp" in p.name] == []
    assert list(store.glob("repro_k_*.so"))
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                assert str(store).encode() not in fh.read()
        except OSError:  # gone meanwhile
            pass
    primed = child()
    assert not primed["in_flight"]
    assert (primed["jit"]["kernels_built"], primed["jit"]["builds"]) \
        == (0, 0)
