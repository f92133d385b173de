"""CLI behaviour: exit codes, output format, suppressions, targets."""

from pathlib import Path

import pytest

from repro.fv3.stencils.remapping import copy_back
from repro.lint import SuppressionIndex, lint_stencil
from repro.lint.cli import main

from tests.lint import stencil_defects as defects
from tests.lint.test_dsl_rules import FIXTURE


def test_cli_fails_on_seeded_defects(capsys):
    assert main([str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "D105" in out
    assert str(FIXTURE) in out
    assert "at or above 'error'" in out


def test_cli_accepts_module_names(capsys):
    assert main(["repro.fv3.stencils.xppm"]) == 0
    assert "0 at or above 'error'" in capsys.readouterr().out


def test_cli_fv3_stencil_suite_is_clean(capsys):
    import repro

    stencils_dir = Path(repro.__file__).parent / "fv3" / "stencils"
    assert main([str(stencils_dir)]) == 0


def test_cli_unknown_target_exits_2(capsys):
    assert main(["no.such.module"]) == 2
    assert "cannot lint" in capsys.readouterr().err


def test_cli_fail_on_warning(tmp_path, capsys):
    mod = tmp_path / "warn_only.py"
    mod.write_text(
        "from repro.dsl import Field, PARALLEL, computation, interval, stencil\n"
        "\n\n@stencil\ndef w(a: Field, out: Field):\n"
        "    with computation(PARALLEL), interval(...):\n"
        "        dead = a * 3.0\n"
        "        out = a\n"
    )
    assert main([str(mod)]) == 0
    assert main([str(mod), "--fail-on", "warning"]) == 1
    out = capsys.readouterr().out
    assert "D106" in out


def test_cli_directory_skips_underscore_files(tmp_path, capsys):
    (tmp_path / "_hidden.py").write_text("raise RuntimeError('never')\n")
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0


def test_suppression_comment_silences_finding():
    findings = SuppressionIndex().apply(lint_stencil(defects.suppressed_race))
    d105 = [f for f in findings if f.rule == "D105"]
    assert len(d105) == 1 and d105[0].suppressed
    # the identical unsuppressed defect stays live
    live = SuppressionIndex().apply(lint_stencil(defects.war_race))
    assert [f.suppressed for f in live if f.rule == "D105"] == [False]


def test_cli_counts_suppressed_findings(capsys):
    main([str(FIXTURE)])
    out = capsys.readouterr().out
    # suppressed_race's D105 is counted but not failing, and hidden by
    # default
    assert "suppressed)" in out
    import re

    m = re.search(r"\((\d+) suppressed\)", out)
    assert m and int(m.group(1)) >= 1


def test_cli_show_suppressed_flag(capsys):
    main([str(FIXTURE), "--show-suppressed"])
    out = capsys.readouterr().out
    assert "(suppressed)" in out


# ---------------------------------------------------------------------------
# --comm, --scenario, --json
# ---------------------------------------------------------------------------


def test_cli_requires_some_target(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_comm_lints_module_plans(capsys):
    # one acoustic schedule, clean, nothing suppressed in-source
    import repro.fv3.acoustics as acoustics
    from repro.lint.cli import collect_comm_plans

    assert [p.name for p in collect_comm_plans(acoustics)] == [
        "acoustics.substep"
    ]
    assert main(["--comm", "repro.fv3.acoustics"]) == 0
    out = capsys.readouterr().out
    assert "0 findings (0 suppressed)" in out


#: a plan module with one deliberate exposed window, silenced in-source
_EXPOSED_WINDOW_PLAN = (
    "from repro.lint.plan_ir import (CommPlan, ExchangeDecl, StartOp,\n"
    "                                FinishOp, ComputeOp, ring_edges)\n"
    "a = ExchangeDecl('a', ('u',), fslot_base=0)\n"
    "plan = CommPlan.spmd('exposed.window', 2, (a,), [\n"
    "    StartOp('a'),  # lint: ignore[C305] \u2014 deliberate empty window\n"
    "    FinishOp('a'),\n"
    "    ComputeOp('interior'),\n"
    "], ring_edges(2))\n"
)


def test_cli_comm_shows_suppressed_windows(tmp_path, capsys):
    mod = tmp_path / "exposed_window_plan.py"
    mod.write_text(_EXPOSED_WINDOW_PLAN)
    assert main(["--comm", str(mod)]) == 0
    out = capsys.readouterr().out
    assert "C305" not in out and "(1 suppressed)" in out
    main(["--comm", "--show-suppressed", str(mod)])
    out = capsys.readouterr().out
    assert "C305" in out
    assert "exposed.window" in out


def test_cli_without_comm_skips_plans(capsys):
    assert main(["repro.fv3.acoustics"]) == 0
    out = capsys.readouterr().out
    assert "(0 suppressed)" in out


def test_cli_comm_fails_on_buggy_plan(tmp_path, capsys):
    mod = tmp_path / "buggy_plan.py"
    mod.write_text(
        "from repro.lint.plan_ir import (CommPlan, ExchangeDecl, StartOp,\n"
        "                                FinishOp, ComputeOp, ring_edges)\n"
        "a = ExchangeDecl('a', ('u',), fslot_base=0)\n"
        "b = ExchangeDecl('b', ('v',), fslot_base=0)\n"
        "compute = ComputeOp('interior')\n"
        "plan = CommPlan.spmd('buggy', 2, (a, b),\n"
        "                     [StartOp('a'), compute, StartOp('b'),\n"
        "                      compute, FinishOp('a'), FinishOp('b')],\n"
        "                     ring_edges(2))\n"
    )
    assert main(["--comm", str(mod)]) == 1
    out = capsys.readouterr().out
    assert "C302" in out


def test_cli_json_artifact(tmp_path, capsys):
    import json

    mod = tmp_path / "exposed_window_plan.py"
    mod.write_text(_EXPOSED_WINDOW_PLAN)
    artifact = tmp_path / "findings.json"
    assert main(["--comm", str(mod), "--json", str(artifact)]) == 0
    data = json.loads(artifact.read_text())
    assert data["fail_on"] == "error"
    assert data["failing"] == 0
    assert data["suppressed"] == 1
    assert {f["rule"] for f in data["findings"]} == {"C305"}
    assert all(f["suppressed"] for f in data["findings"])
    assert set(data["counts"]) == {"error", "warning", "info"}


def test_cli_scenario_discovers_registry_stencils(monkeypatch, capsys):
    """Satellite: stencils reachable only through the scenario registry
    (built by repro.run.build_core, never imported by name here) are
    linted; the acoustic comm plan rides along via --comm."""
    from repro.lint import cli

    linted = []
    real = cli.lint_comm_plan
    monkeypatch.setattr(
        cli, "lint_comm_plan",
        lambda plan: linted.append(plan.name) or real(plan),
    )
    assert main(
        ["--comm", "--scenario", "baroclinic_wave"]
    ) == 0
    assert "acoustics.substep" in linted  # found the acoustic plan
    assert "(0 suppressed)" in capsys.readouterr().out


def test_cli_scenario_unknown_name_exits_2(capsys):
    assert main(["--scenario", "no_such_experiment"]) == 2
    assert "cannot lint scenario" in capsys.readouterr().err


def test_scenario_walk_reaches_stencil_modules():
    from repro.lint.cli import _reachable_repro_modules
    from repro.run.driver import build_core
    from repro.scenarios import get_scenario

    scen = get_scenario("baroclinic_wave")
    core = build_core(
        "baroclinic_wave",
        scen.default_config(npx=12, npz=4),
        executor="sequential",
    )
    try:
        mods = set(_reachable_repro_modules(core))
    finally:
        core.finalize()
        core.executor.shutdown()
    assert "repro.fv3.stencils.c_sw" in mods
    assert "repro.fv3.stencils.d_sw" in mods
    assert "repro.fv3.acoustics" in mods


def test_cli_scenario_lints_the_programs_one_step_traces(monkeypatch,
                                                         capsys):
    """``--scenario`` takes a step and runs the S2xx rules over every
    whole-program SDFG it traced — the module scratch is only visible
    there, as transients — and the R4xx rules over the slab layout of
    every compiled plan the step ran in."""
    from repro.lint import cli

    linted, planned = {}, {}
    real, real_plan = cli.lint_sdfg, cli.lint_compiled_plan
    monkeypatch.setattr(
        cli, "lint_sdfg",
        lambda sdfg: linted.setdefault(sdfg.name, sdfg) and real(sdfg),
    )
    monkeypatch.setattr(
        cli, "lint_compiled_plan",
        lambda plan: planned.setdefault(plan.sdfg.name, plan)
        and real_plan(plan),
    )
    assert main(["--scenario", "baroclinic_wave"]) == 0
    out = capsys.readouterr().out
    assert "0 findings (0 suppressed), 0 at or above 'error'" in out
    assert sorted(linted) == sorted(planned) == [
        "CGridSolver", "DGridSolver.damp_fields", "DGridSolver.momentum",
        "DGridSolver.transport_fields", "LagrangianToEulerian",
        "RankWorkspace.accumulate", "RiemannSolverC", "TracerAdvection",
    ]
    # 29 declarations a rank, seen where they are used (the transport
    # operator's six in both programs that inline it), plus one stencil
    # temporary that crosses computations
    assert sum(len(s.transients()) for s in linted.values()) == 38
    # every slab holds more than one value, laid out without a finding
    for plan in planned.values():
        assert len(plan.plan_offsets) > 1 and real_plan(plan) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_scenario_reports_two_live_values_on_one_offset(monkeypatch,
                                                            capsys):
    """Seeded defect: the planner hands every value of a slab offset 0.
    The step still runs (on garbage); the lint run exits 1 with R404."""
    from repro.runtime import compile_cache
    from repro.sdfg import codegen

    real = codegen.plan_layout

    def everything_at_zero(nbytes, events):
        offsets, slab = real(nbytes, events)
        return [0] * len(offsets), slab

    monkeypatch.setattr(codegen, "plan_layout", everything_at_zero)
    compile_cache.reset(clear=True)
    try:
        assert main(["--scenario", "resting_atmosphere"]) == 1
    finally:
        compile_cache.reset(clear=True)
    out = capsys.readouterr().out
    assert "R404" in out and "share storage" in out
    assert "sdfg:DGridSolver.transport_fields" in out


def test_cli_scenario_reports_a_transient_read_before_write(monkeypatch,
                                                            capsys):
    """Seeded defect: the remap's copy-back runs before the layer remap
    that fills ``q_new``, so the first field reads scratch nothing
    wrote."""
    from repro.fv3.stencils import remapping
    from repro.orchestration import orchestrate
    from repro.runtime import compile_cache

    monkeypatch.setattr(
        remapping.LagrangianToEulerian, "__call__",
        orchestrate(_copy_back_before_remap),
    )
    compile_cache.reset(clear=True)
    try:
        assert main(["--scenario", "resting_atmosphere"]) == 1
    finally:
        compile_cache.reset(clear=True)
    out = capsys.readouterr().out
    assert "S204" in out and "q_new" in out
    assert "LagrangianToEulerian._copy_back_before_remap.copy_back_c0" in out


def _copy_back_before_remap(self, delp, pt, delz, fields):
    h, nx, ny, nk = self.h, self.nx, self.ny, self.nk
    interior = dict(origin=(h, h, 0), domain=(nx, ny, nk))
    for q in fields:
        copy_back(q, self.q_new, **interior)
