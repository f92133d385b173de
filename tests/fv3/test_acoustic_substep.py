"""One program per acoustic sub-step: c_sw, d_sw and the flux
accumulation run as one orchestrated program per rank, the scalar halo
exchange is finished inside it by a callback (paper Sec. V-B), and that
callback neither keeps the program from being shared across ranks nor
from being restored by another process."""

import json
import os
import pathlib
import subprocess
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.fv3.acoustics import ScalarWindow, finish_scalars
from repro.run import build_core, resolve_executor
from repro.runtime import compile_cache as cc
from repro.scenarios import get_scenario
from repro.sdfg.nodes import Callback, ContainerRef, Kernel, ObjectRef

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _core(executor="sequential", workers=None):
    config = get_scenario("baroclinic_wave").default_config(npx=12, npz=4)
    ex, _ = resolve_executor(executor, workers, config.total_ranks)
    return build_core("baroclinic_wave", config, executor=ex)


def _finish(core):
    core.finalize()
    core.executor.shutdown()


def _kernel_labels(state):
    return [node.label for node in state.nodes if isinstance(node, Kernel)]


def test_one_trace_of_the_substep_serves_every_rank():
    cc.reset(clear=True)
    core = _core()
    try:
        core.prepare()
        ranks = core.partitioner.total_ranks
        assert ranks == 6
        bindings = [
            next(iter(
                core.acoustics.substeps[r].__call__._state.bindings.values()
            ))
            for r in core.ranks
        ]
        # traced for rank 0, bound by the other five
        assert len({id(b.template) for b in bindings}) == 1
        assert cc.stats()["program_traces"] == len(core.step_programs(0))
        (callback,) = [
            node for node in bindings[0].template.sdfg.all_nodes()
            if isinstance(node, Callback) and node.func is finish_scalars
        ]
        (window,) = [a for a in callback.args if isinstance(a, ObjectRef)]
        # each rank's callback is handed that rank's window and state
        for rank, binding in zip(core.ranks, bindings):
            assert binding.arrays[window.name] is core.acoustics.windows[rank]
            assert isinstance(binding.arrays[window.name], ScalarWindow)
            state = core.states[rank]
            assert [binding.arrays[a.name] for a in callback.args
                    if isinstance(a, ContainerRef)] \
                == [state.delp, state.pt, state.w]
    finally:
        _finish(core)


def test_the_scalar_finish_is_a_declared_callback_between_c_sw_and_d_sw():
    core = _core()
    try:
        core.step_dynamics()
        sdfg = core.acoustics.substeps[0].__call__.sdfg
        states = sdfg.states
        (at,) = [
            i for i, state in enumerate(states)
            for node in state.nodes
            if isinstance(node, Callback) and node.func is finish_scalars
        ]
        callback = [n for n in states[at].nodes if isinstance(n, Callback)][0]
        # declared: it names what it touches and is no barrier
        assert callback.reads == callback.writes == ["delp", "pt", "w"]
        before = [label for s in states[:at] for label in _kernel_labels(s)]
        after = [label for s in states[at + 1:] for label in _kernel_labels(s)]
        # c_sw before it, all of d_sw and the accumulation after it
        assert before == ["cgrid_winds_x_c0", "cgrid_winds_y_c0",
                          "divergence_cgrid_c0"]
        assert after[0] == "copy_stencil_c0"
        assert after[-1] == "accumulate_fluxes_c0"
        # the C-grid fields are transients of the program, the
        # accumulators are the workspace's arrays
        transients = set(sdfg.transients())
        c_grid = {"crx", "cry", "xfx", "yfx", "delpc"}
        assert {name.rsplit("_", 1)[-1] for name in transients} >= c_grid
        work = core.acoustics.work[0]
        program = core.acoustics.substeps[0].__call__
        (binding,) = program._state.bindings.values()
        held = [a for a in binding.arrays.values()
                if isinstance(a, np.ndarray)]
        for array in (work.crx_adv, work.cry_adv, work.xfx_adv,
                      work.yfx_adv):
            assert any(a is array for a in held)
    finally:
        _finish(core)


@pytest.mark.parametrize("executor, workers",
                         [("sequential", None), ("threads", 2)])
def test_no_rank_waits_for_a_message_inside_a_program(executor, workers,
                                                       monkeypatch):
    """The scalar messages the sub-step program scatters in its callback
    are waited for before it starts: a rank blocked on its peers holds
    no slab, so under rank threads the worker cap bounds the slabs out
    at once, not the number of ranks."""
    from repro.fv3 import communicator
    from repro.sdfg.plan import BoundPlan

    running = threading.local()
    waits, waits_inside = [], []
    real_call, real_wait = BoundPlan.__call__, communicator._io_wait

    def call(self, *args, **kwargs):
        running.program = self.plan.name
        try:
            return real_call(self, *args, **kwargs)
        finally:
            running.program = None

    @contextmanager
    def io_wait():
        waits.append(1)
        program = getattr(running, "program", None)
        if program is not None:
            waits_inside.append(program)
        with real_wait():
            yield

    monkeypatch.setattr(BoundPlan, "__call__", call)
    monkeypatch.setattr(communicator, "_io_wait", io_wait)
    core = _core(executor, workers)
    try:
        core.step_dynamics()
    finally:
        _finish(core)
    assert waits and waits_inside == []


CHILD = '''
import json

from repro.run import build_core
from repro.runtime import compile_cache as cc
from repro.scenarios import get_scenario

config = get_scenario("baroclinic_wave").default_config(npx=12, npz=4)
core = build_core("baroclinic_wave", config, executor="sequential")
core.step_dynamics()
templates = {
    id(next(iter(
        core.acoustics.substeps[r].__call__._state.bindings.values()
    )).template)
    for r in core.ranks
}
stats = cc.stats()
print(json.dumps({
    "stats": {k: stats[k] for k in ("program_traces", "program_binds",
                                    "programs_restored", "programs_stored",
                                    "programs_unpersistable")},
    "substep_templates": len(templates),
    "delp": float(core.states[0].delp.sum()),
}))
core.finalize()
'''


def test_a_second_process_restores_the_substep_program(tmp_path):
    script, store = tmp_path / "child.py", tmp_path / "store"
    script.write_text(CHILD)

    def child():
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                     REPRO_JIT_DIR=str(store), REPRO_BACKEND="numpy"),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    cold, primed = child(), child()
    assert cold["stats"] == dict(program_traces=4, program_binds=20,
                                 programs_restored=0, programs_stored=4,
                                 programs_unpersistable=0)
    assert primed["stats"] == dict(program_traces=0, program_binds=24,
                                   programs_restored=4, programs_stored=0,
                                   programs_unpersistable=0)
    assert cold["substep_templates"] == primed["substep_templates"] == 1
    assert primed["delp"] == cold["delp"]
