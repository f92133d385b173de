"""CI smoke check of the JIT kernel store's cold and primed start (PRs
16, 22, 23).

Two fresh processes share one empty ``REPRO_JIT_DIR``. The first runs a
default-config ``run(steps=1)`` on the C engine: its core binds every
program before the first step inside one ``jit.batch()``, so it must
enter the builder exactly once, start at most one compiler per CPU it
may use (plus the two flag probes) and build fewer kernels than it asks
for (equal kernels of different programs are one kernel). The second
must find every kernel on disk: no translation unit, no kernel built and
not one subprocess started — the verdicts of the OpenMP probe and of the
instruction-set probe are on disk as well. A third process claims another
host's CPU feature string: every kernel has another key and is built
again, beside the first host's objects.

The programs that call the kernels are in the store too (PR 23): the
first process traces its 8 programs and stores them, the second and the
third trace and lower nothing — they restore the templates and the plan
images, and the other host rebuilds only kernels, from the stored texts.
So neither loads the tracer, the stencil front end or a code generator:
after their step none of them is in ``sys.modules``, and no stencil was
parsed.

Run:  PYTHONPATH=src python benchmarks/cold_start_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile

#: what only tracing, parsing and lowering need: a primed process loads
#: none of it
TRACE_SIDE = (
    "repro.dsl.frontend",
    "repro.orchestration.trace",
    "repro.orchestration.preprocessor",
    "repro.orchestration.closure",
    "repro.sdfg.analysis",
    "repro.sdfg.codegen",
    "repro.sdfg.codegen_compiled",
    "repro.sdfg.loopnest",
)


def _child(other_host: bool) -> None:
    started = []

    class Counting(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            started.append(args)
            super().__init__(args, *rest, **kwargs)

    subprocess.Popen = Counting  # ``subprocess.run`` goes through it too
    from repro.run import run
    from repro.runtime import compile_cache, jit

    if other_host:
        jit._FEATURES = jit._cpu_features() + " another-host"
    result = run("baroclinic_wave", steps=1)
    print(json.dumps({
        **jit.stats(), "programs": compile_cache.stats(),
        "ok": result.ok, "subprocesses": len(started),
        "keys": sorted(jit._KERNELS), "cpus": jit._build_width(),
        "probes": len(jit._PROBED),
        # the compiler's verdict on the host's instruction set, as this
        # process came to know it
        "isa": jit._PROBED.get(jit._ISA_FLAG),
        "loaded": [name for name in TRACE_SIDE if name in sys.modules],
    }))


def _spawn(jit_dir: str, *args: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_BACKEND="compiled", REPRO_JIT="cgen",
               REPRO_JIT_DIR=jit_dir)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", *args], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-cold-") as jit_dir:
        cold = _spawn(jit_dir)
        primed = _spawn(jit_dir)
        other = _spawn(jit_dir, "--other-host")
    keys = [set(report.pop("keys")) for report in (cold, primed, other)]
    programs = [report.pop("programs") for report in (cold, primed, other)]
    print("cold:  ", cold)
    print("primed:", primed)
    print("other: ", other)
    assert cold["ok"] and primed["ok"]
    assert cold["engine"] == primed["engine"] == "cgen"
    assert 0 < cold["kernels_built"] < cold["kernels_requested"], cold
    assert cold["builds"] == 1 and 0 < cold["compiles"] <= cold["cpus"], cold
    assert cold["subprocesses"] == cold["compiles"] + cold["probes"], cold
    assert cold["cache_repairs"] == primed["cache_repairs"] == 0
    assert primed["kernels_requested"] == cold["kernels_requested"], primed
    assert primed["compiles"] == 0 and primed["kernels_built"] == 0, primed
    assert primed["builds"] == 0, primed
    assert primed["disk_hits"] > 0 and primed["subprocesses"] == 0, primed
    # no subprocess, yet the verdict is known: it was read from the store
    assert primed["isa"] is not None and primed["isa"] == cold["isa"], primed
    assert primed["loaded"] == other["loaded"] == [], (primed, other)
    assert keys[0] == keys[1] and not keys[0] & keys[2]
    assert other["kernels_built"] == cold["kernels_built"], other
    # the programs: traced and stored once, restored ever after — by the
    # other host too, which rebuilds kernels from the stored texts
    traced, restored, elsewhere = programs
    print("programs:", {
        name: [p[name] for p in programs]
        for name in ("program_traces", "misses", "hits",
                     "programs_stored", "programs_restored")
    })
    assert (traced["program_traces"], traced["programs_stored"]) == (8, 8)
    assert (restored["program_traces"], restored["misses"],
            restored["programs_restored"]) == (0, 0, 8), restored
    assert elsewhere["program_traces"] == 0, elsewhere
    assert all(p["programs_stale"] == p["programs_unpersistable"] == 0
               for p in programs), programs
    print("cold-start smoke: ok")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(other_host="--other-host" in sys.argv)
    else:
        main()
