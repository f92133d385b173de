"""Every ``repro.*`` subpackage imports on its own.

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


def test_every_subpackage_imports_first_in_a_fresh_interpreter():
    names = sorted(
        f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    )
    assert {"repro.sdfg", "repro.dsl", "repro.obs", "repro.core"} <= set(names)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
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
