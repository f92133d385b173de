"""Every ``repro.*`` subpackage imports on its own, and the entry points
import nothing only a trace needs.

Inside one pytest process the import order of earlier tests hides a
cycle (``import repro.sdfg`` first used to die in ``obs.metrics →
core.machine → core.perfmodel → sdfg.nodes → dsl → obs``), so each
subpackage is imported *first*, in a fresh interpreter.
"""

import os
import pkgutil
import subprocess
import sys

import repro

#: what tracing a program (and parsing a stencil) needs and binding a
#: restored one does not: loaded with the first trace
TRACE_SIDE = (
    "repro.dsl.frontend",
    "repro.orchestration.trace",
    "repro.orchestration.preprocessor",
    "repro.orchestration.closure",
    "repro.sdfg.analysis",
)


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
    assert out[1].startswith("ensemble: 1 run(s), 1 member(s)")
