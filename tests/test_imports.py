"""Every ``repro.*`` subpackage imports on its own, the entry points
import nothing only a trace needs, and a primed step imports nothing it
does not call.

Inside one pytest process the import order of earlier tests hides a
cycle (``import repro.sdfg`` first used to die in ``obs.metrics →
core.machine → core.perfmodel → sdfg.nodes → dsl → obs``), so each
subpackage is imported *first*, in a fresh interpreter.
"""

import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.runtime import jit

#: what tracing a program (and parsing a stencil) needs and binding a
#: restored one does not: loaded with the first trace
TRACE_SIDE = (
    "repro.dsl.frontend",
    "repro.orchestration.trace",
    "repro.orchestration.preprocessor",
    "repro.orchestration.closure",
    "repro.sdfg.analysis",
)

#: what a primed step does not call and so never imports: the IR and the
#: graph classes, the machine models, the timing helpers, snapshots,
#: checkpoints and guards, the rank-thread pool (with the ``logging`` it
#: brings) and the compiler driver; each loads at its first use
LAZY = (
    "repro.dsl.ir",
    "repro.dsl.extents",
    "repro.machine",
    "repro.obs.timing",
    "repro.sdfg.graph",
    "repro.sdfg.memlet",
    "repro.sdfg.subsets",
    "repro.resilience.checkpoint",
    "repro.resilience.guards",
    "concurrent.futures",
    "logging",
    "subprocess",
)

#: a default c12·L4 driver and two steps, then what the process holds
PRIMED_STEP = """
import dataclasses, json, sys
from repro.run import EnsembleDriver
from repro.runtime import compile_cache, jit
from repro.scenarios import get_scenario

config = dataclasses.replace(
    get_scenario("baroclinic_wave").default_config(), npx=12, npz=4)
driver = EnsembleDriver("baroclinic_wave", config, members=(1,), seed=5,
                        diagnostics=False)
driver.step(2)
cache, kernels = compile_cache.stats(), jit.stats()
print(json.dumps({
    "traces": cache["program_traces"], "stale": cache["programs_stale"],
    "restored": cache["programs_restored"], "compiles": kernels["compiles"],
    "modules": sorted(sys.modules),
}))
"""


def _fresh_env():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return {**os.environ, "PYTHONPATH": src}


def test_every_subpackage_imports_first_in_a_fresh_interpreter():
    names = sorted(
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    )
    assert {"repro.sdfg", "repro.dsl", "repro.obs", "repro.core"} <= set(names)
    env = _fresh_env()
    failed = []
    for start in range(0, len(names), 4):  # four interpreters at a time
        running = [
            (name, subprocess.Popen(
                [sys.executable, "-c", f"import {name}"], env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            ))
            for name in names[start:start + 4]
        ]
        for name, proc in running:
            _, stderr = proc.communicate(timeout=120)
            if proc.returncode != 0:
                failed.append(f"{name}:\n{stderr.decode(errors='replace')}")
    assert not failed, "\n".join(failed)


def test_the_entry_points_load_no_trace_side_module():
    """Decorating the package's stencils parses none of them, and
    importing the tracer waits for the first trace."""
    probe = (
        "import sys, repro.run, repro.serve; "
        f"print([m for m in {TRACE_SIDE!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_fresh_env(), check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"


def test_the_report_renderer_loads_with_the_first_report():
    """``import repro.run`` leaves the renderer out; the first
    ``obs.report()`` loads it, footers and all."""
    probe = "\n".join((
        "import sys",
        "import repro.run",
        "print('repro.obs.render' in sys.modules)",
        "from repro import obs",
        "from repro.run import metrics",
        "obs.enable()",
        "with obs.span('step'):",
        "    metrics.COUNTERS.merge({'runs': 1, 'members': 1})",
        "print(obs.report().splitlines()[-1])",
    ))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_fresh_env(), check=True,
        capture_output=True, text=True,
    ).stdout.splitlines()
    assert out[0] == "False"
    assert out[1].startswith("ensemble: runs 1, members 1, ")


@pytest.mark.skipif(jit._find_cc() is None, reason="no C compiler")
def test_a_primed_step_imports_only_what_it_calls(tmp_path):
    """A primed process restores every program and compiles nothing, and
    none of what only a trace, a checkpoint, a guard, rank threads or the
    compiler needs is imported: the restore finds what its records name
    among the modules a step loads anyway."""
    env = {**_fresh_env(), "REPRO_JIT_DIR": str(tmp_path / "jit"),
           "REPRO_BACKEND": "compiled",
           "REPRO_THREADS": "1"}

    def step():
        out = subprocess.run(
            [sys.executable, "-c", PRIMED_STEP], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        return json.loads(out.splitlines()[-1])

    cold = step()
    assert cold["traces"] == 4 and set(LAZY) & set(cold["modules"])
    primed = step()
    assert (primed["traces"], primed["stale"], primed["restored"],
            primed["compiles"]) == (0, 0, 4, 0)
    assert [m for m in LAZY + TRACE_SIDE if m in primed["modules"]] == []


def test_the_default_machines_name_is_known_without_the_models():
    """A compiled plan's key names the roofline machine; its name is kept
    beside the model's getter so that keying loads no model."""
    from repro.machine import HASWELL
    from repro.obs import metrics

    assert metrics.observed_machine_name() == HASWELL.name
    assert metrics.observed_machine() is HASWELL
