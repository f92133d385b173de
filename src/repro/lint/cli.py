"""``python -m repro.lint`` — lint stencil modules and SDFGs from the shell.

Targets are dotted module names (``repro.fv3.stencils.xppm``) or
filesystem paths; a directory is linted recursively (every ``*.py`` file
except ``_``-prefixed ones). Each module is imported and every
``StencilObject`` and ``SDFG`` found in its namespace is linted.

``--comm`` additionally runs the C3xx communication-protocol rules over
every :class:`~repro.lint.plan_ir.CommPlan` the target modules expose —
either as module-level instances or through a module-level
``build_comm_plans()`` hook (the convention :mod:`repro.fv3.acoustics`
follows).

``--scenario NAME`` discovers lint subjects *through the experiment
registry*: the named scenario is wired into a real (small) core with
:func:`repro.run.driver.build_core`, the core takes one step, and the
resulting object graph is walked: every repro-owned module a live object
came from is linted, and so is every orchestrated program the step
traced — what the model runs: its whole-program SDFG, transients
included (S204/S205), and the slab layout its compiled plan executes in
(R4xx: no two simultaneously live values share bytes). This catches
stencils reachable only through runtime composition that a plain module
listing would miss.

Exit status is 1 if any unsuppressed finding at or above ``--fail-on``
(default: error) is reported, 0 otherwise — wired for CI. ``--json``
writes the machine-readable findings + summary next to the human report.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

from repro.lint.comm_rules import lint_comm_plan
from repro.lint.dsl_rules import lint_stencil
from repro.lint.findings import (
    SEVERITIES,
    LintFinding,
    SuppressionIndex,
    sort_findings,
)
from repro.lint.runtime_rules import lint_compiled_plan
from repro.lint.sdfg_rules import lint_sdfg


def _iter_module_files(path: Path) -> Iterable[Path]:
    if path.is_dir():
        yield from sorted(
            p
            for p in path.rglob("*.py")
            if not p.name.startswith("_")
        )
    else:
        yield path


def _dotted_name(path: Path) -> str:
    """Derive the importable dotted name of a file inside a package, so
    the module is imported under its real identity (one shared instance
    with everything else importing it)."""
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def _load_module(target: str):
    path = Path(target)
    if path.exists():
        name = _dotted_name(path.resolve())
        try:
            return importlib.import_module(name)
        except ImportError:
            spec = importlib.util.spec_from_file_location(
                name or path.stem, path
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(target)


def collect_targets(module) -> Tuple[List, List]:
    """(stencils, sdfgs) found in a module namespace."""
    from repro.dsl.stencil import StencilObject
    from repro.sdfg.graph import SDFG

    stencils, sdfgs, seen = [], [], set()
    for name in sorted(vars(module)):
        obj = vars(module)[name]
        if id(obj) in seen:
            continue
        if isinstance(obj, StencilObject):
            stencils.append(obj)
            seen.add(id(obj))
        elif isinstance(obj, SDFG):
            sdfgs.append(obj)
            seen.add(id(obj))
    return stencils, sdfgs


def collect_comm_plans(module) -> List:
    """CommPlans a module exposes: module-level instances, plus whatever
    a module-level ``build_comm_plans()`` hook constructs on demand
    (plans over real topologies are usually too expensive to build at
    import time)."""
    from repro.lint.plan_ir import CommPlan

    plans, seen = [], set()
    for name in sorted(vars(module)):
        obj = vars(module)[name]
        if isinstance(obj, CommPlan) and id(obj) not in seen:
            plans.append(obj)
            seen.add(id(obj))
    hook = vars(module).get("build_comm_plans")
    if callable(hook):
        for plan in hook():
            if isinstance(plan, CommPlan) and id(plan) not in seen:
                plans.append(plan)
                seen.add(id(plan))
    return plans


def lint_target(target: str, comm: bool = False) -> List[LintFinding]:
    """Lint one module name or path; returns unsorted, unsuppressed-flagged
    findings."""
    findings: List[LintFinding] = []
    path = Path(target)
    if path.exists() and path.is_dir():
        for f in _iter_module_files(path):
            findings.extend(lint_target(str(f), comm=comm))
        return findings
    module = _load_module(target)
    findings.extend(_lint_module(module, comm=comm))
    return findings


def _lint_module(module, comm: bool = False) -> List[LintFinding]:
    findings: List[LintFinding] = []
    stencils, sdfgs = collect_targets(module)
    for stencil in stencils:
        findings.extend(lint_stencil(stencil))
    for sdfg in sdfgs:
        findings.extend(lint_sdfg(sdfg))
    if comm:
        for plan in collect_comm_plans(module):
            findings.extend(lint_comm_plan(plan))
    return findings


def _walk_repro_objects(root, max_objects: int = 10000) -> Iterable:
    """Every object on the live object graph under ``root``: a
    breadth-first walk over ``__dict__`` values of repro-owned objects
    and over container elements. Orchestrated programs are yielded but
    not entered (their bindings hold the arrays and SDFGs of every
    rank)."""
    from repro.orchestration import OrchestratedProgram

    visited: Set[int] = set()
    queue = [root]
    while queue and len(visited) < max_objects:
        obj = queue.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        yield obj
        if isinstance(obj, OrchestratedProgram):
            continue
        if isinstance(obj, dict):
            queue.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            queue.extend(obj)
            continue
        mod = getattr(type(obj), "__module__", "") or ""
        if mod.split(".", 1)[0] != "repro":
            continue  # don't wander into numpy/stdlib internals
        d = getattr(obj, "__dict__", None)
        if d:
            queue.extend(d.values())


def _reachable_repro_modules(root, max_objects: int = 10000) -> List[str]:
    """Module names of every repro-owned class encountered on the live
    object graph under ``root``: anything whose *type* is defined in a
    ``repro.*`` module contributes that module. This is how
    ``--scenario`` finds stencils that only exist because the registry
    composed them — e.g. solvers built inside
    :func:`repro.run.driver.build_core` whose stencils live in modules
    nothing on the CLI named."""
    modules: Set[str] = set()
    for obj in _walk_repro_objects(root, max_objects):
        mod = getattr(type(obj), "__module__", "") or ""
        if mod.split(".", 1)[0] == "repro":
            modules.add(mod)
    return sorted(modules)


def _traced_programs(root) -> List:
    """``(whole-program SDFG, compiled plan)`` of every traced
    orchestrated program on the object graph under ``root`` (ranks bound
    to one template share both, which are listed once)."""
    from repro.orchestration import OrchestratedProgram

    programs = {}
    for obj in _walk_repro_objects(root):
        if isinstance(obj, OrchestratedProgram):
            for binding in obj._bindings.values():
                programs[id(binding.template.sdfg)] = (
                    binding.template.sdfg, binding.plan
                )
    return list(programs.values())


def lint_scenario(name: str, comm: bool = False) -> List[LintFinding]:
    """Build the named scenario into a tiny sequential core, take one
    step, and lint every repro module its live object graph reaches and
    every program the step traced."""
    from repro.run.driver import build_core
    from repro.scenarios import get_scenario

    scen = get_scenario(name)  # fail fast on unknown names
    core = build_core(
        name,
        scen.default_config(npx=12, npz=4),
        executor="sequential",
    )
    try:
        core.step_dynamics()
        modules = _reachable_repro_modules(core)
        findings: List[LintFinding] = []
        for sdfg, plan in _traced_programs(core):
            findings.extend(lint_sdfg(sdfg))
            if plan is not None:
                # the slab layout the step just ran in (R4xx)
                findings.extend(lint_compiled_plan(plan))
        linted: Set[str] = set()
        for mod_name in modules:
            module = sys.modules.get(mod_name)
            if module is None or mod_name in linted:
                continue
            linted.add(mod_name)
            findings.extend(_lint_module(module, comm=comm))
        return findings
    finally:
        core.finalize()
        if core.executor is not None:
            core.executor.shutdown()


def _findings_json(findings: List[LintFinding], fail_on: str) -> dict:
    threshold = SEVERITIES.index(fail_on)
    return {
        "fail_on": fail_on,
        "failing": sum(
            1
            for f in findings
            if not f.suppressed
            and SEVERITIES.index(f.severity) <= threshold
        ),
        "counts": {
            sev: sum(
                1
                for f in findings
                if f.severity == sev and not f.suppressed
            )
            for sev in SEVERITIES
        },
        "suppressed": sum(1 for f in findings if f.suppressed),
        "findings": [
            {
                "rule": f.rule,
                "name": f.name,
                "severity": f.severity,
                "subject": f.subject,
                "message": f.message,
                "location": str(f.location) if f.location else None,
                "hint": f.hint,
                "suppressed": f.suppressed,
            }
            for f in findings
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="semantic static analysis for stencils and SDFGs",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="module names or paths (directories are linted recursively)",
    )
    parser.add_argument(
        "--comm",
        action="store_true",
        help="also run the C3xx protocol rules over CommPlans the "
        "targets expose (module-level plans and build_comm_plans() "
        "hooks)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="NAME",
        help="lint every module reachable from this registered scenario "
        "and every program one step of it traces (repeatable); builds a "
        "small sequential core to discover them",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write findings and summary as JSON to PATH",
    )
    parser.add_argument(
        "--fail-on",
        choices=SEVERITIES,
        default="error",
        help="minimum severity that fails the run (default: error)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by # lint: ignore[...] comments",
    )
    args = parser.parse_args(argv)
    if not args.targets and not args.scenario:
        parser.error("no targets given (positional targets or --scenario)")

    findings: List[LintFinding] = []
    for target in args.targets:
        try:
            findings.extend(lint_target(target, comm=args.comm))
        except (ImportError, OSError, SyntaxError) as exc:
            print(f"error: cannot lint {target!r}: {exc}", file=sys.stderr)
            return 2
    for scenario in args.scenario:
        try:
            findings.extend(lint_scenario(scenario, comm=args.comm))
        except Exception as exc:
            print(
                f"error: cannot lint scenario {scenario!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    findings = sort_findings(SuppressionIndex().apply(findings))

    # Scenario discovery and multiple targets can reach the same module
    # twice; a finding is one (rule, subject, location) fact.
    unique, seen_keys = [], set()
    for f in findings:
        if f.key() in seen_keys:
            continue
        seen_keys.add(f.key())
        unique.append(f)
    findings = unique

    shown = suppressed = 0
    for f in findings:
        if f.suppressed:
            suppressed += 1
            if args.show_suppressed:
                print(f)
        else:
            shown += 1
            print(f)

    if args.json:
        Path(args.json).write_text(
            json.dumps(_findings_json(findings, args.fail_on), indent=2)
            + "\n"
        )

    threshold = SEVERITIES.index(args.fail_on)
    failing = sum(
        1
        for f in findings
        if not f.suppressed and SEVERITIES.index(f.severity) <= threshold
    )
    print(
        f"{shown} finding{'s' if shown != 1 else ''}"
        f" ({suppressed} suppressed), {failing} at or above "
        f"{args.fail_on!r}"
    )
    return 1 if failing else 0
