"""Reachability census: which functions of ``src/repro`` the repository's
entry points run.

    python tools/reach.py

Every entry point below runs in a fresh process with ``cProfile`` on in
every thread and in every worker process it forks or spawns (a
``sitecustomize`` put first on ``PYTHONPATH``). A function is *reached*
when a profiler saw it called, or when a live object shows it ran
without being called: a ``StencilObject`` that ran (its definition is
parsed, never called) and the functions an orchestrated program's
templates were traced from (the program's body, every function it
inlined and every stencil it calls, which are parsed too). Reach by a unit test does not count: the
test suite is not an entry point.

Every process writes its profile when it ends, or a failure record
when writing the profile raised. An entry point is ``ok`` only when it
exited 0, its top-level process left a profile and no process of it
left a failure record; otherwise it is ``FAILED``, and the census,
missing what that entry point reached, prints no table and exits 2.

Prints one row per directory of the package, then every unreached
function, each marked with its owner row of the census table in
``DESIGN.md`` ("Reachability census") or ``UNOWNED``, and ends with one
summary line, ``census: F functions, R reached, U unreached, O owned,
count_loc L``; exits 1 when a function is unowned. Takes 3½–6½ minutes
on two cores. Leaves the committed harness results
(``benchmarks/results``) as it found them.
"""

from __future__ import annotations

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
from typing import List

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DESIGN = ROOT / "DESIGN.md"
#: an owner row of DESIGN.md's census table: ``| `dir/file.py:qualname` | owner |``
OWNER_ROW = re.compile(r"^\| `([\w/]+\.py):([\w.<>]+)` \| (.+?) \|\s*$")
OWNER_KINDS = ("API", "error path", "reference")

SCENARIOS = ("baroclinic_wave", "resting_atmosphere", "rotated_transport",
             "solid_body_rotation")

#: (label, argv after the interpreter, extra environment)
ENTRY_POINTS = [
    ("benchmark --quick", ["benchmarks/perf/run.py", "--quick"], {}),
    ("benchmark --quick --layers",
     ["benchmarks/perf/run.py", "--quick", "--layers"], {}),
    ("repro.lint --comm, 4 scenarios",
     ["-m", "repro.lint", "--comm"]
     + [arg for name in SCENARIOS for arg in ("--scenario", name)]
     + ["repro.fv3.acoustics", "repro.fv3.dyncore", "src/repro/fv3/stencils"],
     {}),
    ("paper harnesses", ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
     + sorted(str(p.relative_to(ROOT))
              for p in (ROOT / "benchmarks").glob("bench_*.py")), {}),
    ("Fig. 11 --measured",
     ["benchmarks/bench_fig11_weak_scaling.py", "--measured", "--steps", "2"],
     {}),
    ("example quickstart", ["examples/quickstart.py"], {}),
    ("example baroclinic_wave", ["examples/baroclinic_wave.py", "2"], {}),
    ("example baroclinic_wave --trace",
     ["examples/baroclinic_wave.py", "1", "--trace"], {}),
    ("example baroclinic_wave, REPRO_CHAOS",
     ["examples/baroclinic_wave.py", "2"],
     {"REPRO_CHAOS": "seed=7;halo.delay@25"}),
    ("example tracer_transport", ["examples/tracer_transport.py"], {}),
    ("example performance_engineering",
     ["examples/performance_engineering.py"], {}),
] + [
    (f"run() cells, {backend}{', traced' if trace else ''}",
     ["-c", "import reach; reach.run_cells()"],
     {"REPRO_BACKEND": backend, **({"REPRO_TRACE": "1"} if trace else {})})
    for backend in ("numpy", "compiled") for trace in (False, True)
] + [
    ("resilience, ensemble, service",
     ["-c", "import reach; reach.run_services()"], {}),
]


# ---------------------------------------------------------------------------
# the entry points that are library calls rather than commands
# ---------------------------------------------------------------------------


def run_cells() -> None:
    """``run()`` over every scenario and executor at c12·L4, one step."""
    from repro.run import run
    from repro.scenarios import get_scenario

    for name in SCENARIOS:
        config = get_scenario(name).default_config(npx=12, npz=4)
        for executor, workers in (("sequential", None), ("threads", 3),
                                  ("processes", 2)):
            run(name, config, steps=1, executor=executor, workers=workers)


def run_services() -> None:
    """A guarded run writing checkpoints, a member restored from one, a
    two-member ensemble stepped through one engine, and a served mix of
    misses, warm starts and cache hits."""
    from repro.resilience import GuardConfig, ResilienceConfig
    from repro.run import EnsembleDriver
    from repro.scenarios import get_scenario
    from repro.serve import ForecastRequest, ForecastService, ServiceConfig

    config = get_scenario("baroclinic_wave").default_config(npx=12, npz=4)
    with tempfile.TemporaryDirectory() as directory:
        resilience = ResilienceConfig(
            guard=GuardConfig(policy="rollback"), checkpoint_every=1,
            checkpoint_dir=directory,
        )
        driver = EnsembleDriver("baroclinic_wave", config, members=2,
                                seed=3, resilience=resilience)
        try:
            driver.run(2)
            driver.member_report(0)
            driver.snapshot_member(1)
            first = min(pathlib.Path(directory).rglob("*.npz"))
            driver.restore_member(0, first)
            driver.run(1)
        finally:
            driver.close()
    service = ForecastService(ServiceConfig(workers=2, batch_max=4))
    try:
        tickets = [
            service.submit(ForecastRequest(
                "baroclinic_wave", steps, config=config, member=member,
                seed=3, deadline=300.0,
            ))
            for steps, member in ((2, 0), (2, 0), (1, 1), (3, 1), (2, 2))
        ]
        for ticket in tickets:
            ticket.result()
    finally:
        service.close()


# ---------------------------------------------------------------------------
# the profiler every process of an entry point starts with
# ---------------------------------------------------------------------------

SITECUSTOMIZE = '''
import atexit, cProfile, gc, os, sys, threading

_OUT = os.environ.get("REACH_CENSUS_OUT")
_PACKAGE = os.environ.get("REACH_CENSUS_PACKAGE", "")
_PROFILES = []


class _Profile(cProfile.Profile):
    def __call__(self, frame, event, arg):
        # put back as a plain profile function by code that saved and
        # restored sys.getprofile() (pytest-benchmark's timer does)
        sys.setprofile(None)
        self.enable()


def _profile():
    profile = _Profile()
    _PROFILES.append(profile)
    profile.enable()


def _thread_started(frame, event, arg):
    sys.setprofile(None)
    _profile()


def _codes_of_objects():
    """Functions that ran without being called: the definition of a
    stencil that ran (its body is parsed, never called; parsing alone,
    as the linter does, is not running it) and what an orchestrated
    program was traced from."""
    codes = []

    def add(obj):
        obj = getattr(obj, "_func", obj)
        code = getattr(obj, "__code__", None)
        if code is not None:
            codes.append(code)

    stencil = sys.modules.get("repro.dsl.stencil")
    if stencil is not None:
        for obj in gc.get_objects():
            if isinstance(obj, stencil.StencilObject) and obj._plans:
                add(obj)
    cache = sys.modules.get("repro.runtime.compile_cache")
    if cache is not None:
        for key, family in list(cache._FAMILIES.items()):
            if family.templates:
                add(key[0])
            for template in family.templates:
                for source in template.sources:
                    add(source)
    return codes


def _dump():
    # the profile, or a failure record: a process that leaves neither
    # fails its entry point too, if it is the top-level one
    try:
        codes = _codes_of_objects()
        for profile in list(_PROFILES):
            codes.extend(entry.code for entry in profile.getstats())
        lines = {
            f"{code.co_filename}\\t{code.co_firstlineno}"
            for code in codes
            if not isinstance(code, str)
            and code.co_filename.startswith(_PACKAGE)
        }
    except Exception:
        import traceback

        with open(os.path.join(_OUT, f"{os.getpid()}.failed"), "a") as out:
            out.write(traceback.format_exc())
        return
    path = os.path.join(_OUT, f"{os.getpid()}.txt")
    with open(path, "a") as out:
        out.write("\\n".join(sorted(lines)) + "\\n")


def _forked():
    # a multiprocessing child leaves through os._exit, past atexit, and
    # clears its finalizers on start: dump from its exit function
    util = sys.modules.get("multiprocessing.util")
    if util is None:
        return
    exit_function = util._exit_function

    def _exit_then_dump(*args, **kwargs):
        try:
            return exit_function(*args, **kwargs)
        finally:
            _dump()

    util._exit_function = _exit_then_dump


if _OUT:
    threading.setprofile(_thread_started)
    _profile()
    atexit.register(_dump)
    os.register_at_fork(after_in_child=_forked)
'''


# ---------------------------------------------------------------------------
# the functions of the package, and the table
# ---------------------------------------------------------------------------


def package_functions():
    """``{(absolute file, first line of its code object): (directory,
    "file.py:qualname")}`` for every function of the package; a decorated
    function's code starts at its first decorator, and a property's
    setter or deleter is named ``qualname.setter`` / ``.deleter``."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        directory = str(relative.parent) if relative.parent.parts else "."

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list
                    ])
                    accessor = "".join(
                        f".{d.attr}" for d in child.decorator_list
                        if isinstance(d, ast.Attribute)
                        and d.attr in ("setter", "deleter")
                    )
                    functions[(str(path), first)] = (
                        directory, f"{relative}:{qualname}{accessor}"
                    )
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return functions


def owner_rows(text: str):
    """``{"file.py:qualname": owner}`` of DESIGN.md's census table; a row
    whose owner is not one of :data:`OWNER_KINDS` owns nothing."""
    return {
        match.group(1) + ":" + match.group(2): match.group(3)
        for match in map(OWNER_ROW.match, text.splitlines())
        if match and match.group(3).startswith(OWNER_KINDS)
    }


def _run_entry_points(out: pathlib.Path, entry_points=ENTRY_POINTS,
                      sitecustomize: str = SITECUSTOMIZE) -> List[str]:
    """Run every entry point under the profiler; the labels of those
    that ``FAILED``."""
    failed = []
    site = out / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(sitecustomize)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(ROOT / "src"), str(ROOT / "tools")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REACH_CENSUS_PACKAGE"] = str(PACKAGE)
    env["REPRO_JIT_DIR"] = str(out / "jit")
    for index, (label, argv, extra) in enumerate(entry_points):
        dumps = out / f"entry{index}"
        dumps.mkdir()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT,
            env={**env, **extra, "REACH_CENSUS_OUT": str(dumps)},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        output, _ = proc.communicate()
        failures = sorted(dumps.glob("*.failed"))
        if proc.returncode != 0:
            status = f"FAILED (exit {proc.returncode})"
        elif not (dumps / f"{proc.pid}.txt").is_file():
            status = "FAILED (no profile of the top-level process)"
        elif failures:
            status = f"FAILED ({len(failures)} processes could not dump)"
        else:
            status = "ok"
        print(f"  {label:<40} {time.perf_counter() - started:6.1f} s  "
              f"{len(list(dumps.glob('*.txt')))} processes  {status}",
              flush=True)
        if status != "ok":
            failed.append(label)
            print(output[-3000:], file=sys.stderr)
            for failure in failures:
                print(failure.read_text()[-3000:], file=sys.stderr)
    return failed


def main(entry_points=ENTRY_POINTS,
         sitecustomize: str = SITECUSTOMIZE) -> int:
    functions = package_functions()
    results = ROOT / "benchmarks" / "results"
    kept = {path: path.read_bytes() for path in results.glob("*")}
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        out = pathlib.Path(scratch)
        print("entry points:")
        try:
            failed = _run_entry_points(out, entry_points, sitecustomize)
        finally:
            for path in results.glob("*"):
                if path not in kept:
                    path.unlink()
            for path, data in kept.items():
                path.write_bytes(data)
        if failed:
            # what only they reach would read "unreached"
            print(f"\ncensus incomplete: {len(failed)} of "
                  f"{len(entry_points)} entry points FAILED; no table")
            return 2
        reached = set()
        for dump in out.glob("entry*/*.txt"):
            for line in dump.read_text().splitlines():
                if line:
                    filename, first = line.rsplit("\t", 1)
                    reached.add((filename, int(first)))
    owners = owner_rows(DESIGN.read_text())
    rows = collections.defaultdict(lambda: [0, 0, 0])
    unreached = []
    for key, (directory, name) in functions.items():
        row = rows[directory]
        row[0] += 1
        if key in reached:
            row[1] += 1
        else:
            unreached.append(name)
            row[2] += name in owners
    print()
    print("| directory | functions | reached | unreached | owned |")
    print("|---|---:|---:|---:|---:|")
    for directory, (total, hit, owned) in sorted(rows.items()):
        print(f"| `{directory}` | {total} | {hit} | {total - hit} "
              f"| {owned} |")
    total = sum(row[0] for row in rows.values())
    hit = sum(row[1] for row in rows.values())
    owned = sum(row[2] for row in rows.values())
    print(f"| **all** | {total} | {hit} | {total - hit} | {owned} |")
    print()
    unowned = 0
    for name in sorted(unreached):
        owner = owners.get(name)
        unowned += owner is None
        print(f"{name:<72} {owner or 'UNOWNED'}")
    print(f"\n{len(unreached)} unreached, {unowned} without an owner row")
    print(f"census: {total} functions, {hit} reached, {total - hit} "
          f"unreached, {owned} owned, count_loc {package_loc()}")
    return 1 if unowned else 0


def package_loc() -> int:
    """``count_loc`` over the package (``repro.util.loc``, Table I's
    counting rule)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.util.loc import count_loc_files
    finally:
        sys.path.remove(str(ROOT / "src"))
    return count_loc_files(sorted(PACKAGE.rglob("*.py")))


if __name__ == "__main__":
    sys.exit(main())
