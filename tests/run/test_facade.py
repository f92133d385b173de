"""The repro.run facade: structured results, executor resolution and
the obs report's ensemble footer."""

import json

import numpy as np
import pytest

from repro import obs
from repro.fv3.config import DynamicalCoreConfig
from repro.run import (
    EnsembleDriver,
    MemberResult,
    RunResult,
    build_core,
    metrics,
    resolve_executor,
    run,
)
from repro.runtime import ranks
from repro.scenarios import UnknownScenarioError


def _config(**overrides):
    base = dict(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
        n_tracers=1,
    )
    base.update(overrides)
    return DynamicalCoreConfig(**base)


@pytest.fixture(scope="module")
def two_member_run():
    return run("baroclinic_wave", _config(), steps=2, members=2, seed=4)


# ---------------------------------------------------------------------------
# RunResult structure
# ---------------------------------------------------------------------------
def test_run_result_structure(two_member_run):
    result = two_member_run
    assert isinstance(result, RunResult)
    assert result.scenario == "baroclinic_wave"
    assert result.steps == 2
    assert result.seed == 4
    assert result.seconds > 0.0
    assert [m.member for m in result.members] == [0, 1]
    assert result.member(1).member == 1
    with pytest.raises(KeyError):
        result.member(5)
    assert result.ok and result.violations == {}
    am = result.amortization
    assert am["members"] == 2
    assert am["grid_builds_avoided"] == 6  # second member shares geometry
    # every program call of the run either traced or bound (4 per rank),
    # and each program is traced once for both members and all ranks
    assert am["program_traces"] + am["program_binds"] == 4 * 6
    assert am["program_traces"] <= 4
    # the engine is shared; per-member state lives on the members
    assert result.engine is not None
    assert len(result.member(0).states) == result.config.total_ranks


def test_member_result_structure(two_member_run):
    member = two_member_run.member(0)
    assert isinstance(member, MemberResult)
    assert member.steps == 2
    assert len(member.history) == 2  # diagnostics on by default
    entry = member.history[-1]
    for key in ("step", "time", "max_wind", "mass_drift", "tracer_drift"):
        assert key in entry
    assert entry["step"] == 2
    assert member.ok and member.check_violations == []
    assert abs(member.mass_drift) < 1e-9
    assert member.summary["max_wind"] > 0.0


def test_describe_is_human_readable(two_member_run):
    text = two_member_run.describe()
    assert "scenario 'baroclinic_wave'" in text
    assert "member 0" in text and "member 1" in text
    assert "amortized" in text


def test_diagnostics_off_skips_history():
    with EnsembleDriver("baroclinic_wave", _config(),
                        diagnostics=False) as driver:
        result = driver.run(1)
    assert result.member(0).history == []


def test_explicit_member_ids():
    result = run("baroclinic_wave", _config(), steps=1, members=(2,),
                 seed=4)
    assert [m.member for m in result.members] == [2]


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenarioError):
        run("no_such_scenario", steps=1)


# ---------------------------------------------------------------------------
# executor resolution
# ---------------------------------------------------------------------------
def test_resolve_executor_names():
    ex, owned = resolve_executor(None)
    assert ex is None and not owned
    ex, owned = resolve_executor("sequential")
    try:
        assert owned and not ex.parallel
    finally:
        ex.shutdown()
    ex, owned = resolve_executor("threads", workers=2)
    try:
        assert owned and ex.parallel
    finally:
        ex.shutdown()
    mine = ranks.RankExecutor(1)
    try:
        ex, owned = resolve_executor(mine)
        assert ex is mine and not owned
    finally:
        mine.shutdown()
    with pytest.raises(ValueError, match="unknown executor"):
        resolve_executor("procesess")


def test_build_core_wires_comm_knobs():
    core = build_core("baroclinic_wave", _config(), comm_latency=0.25)
    assert core.halo.comm.latency == 0.25


# ---------------------------------------------------------------------------
# obs integration
# ---------------------------------------------------------------------------
@pytest.mark.traced
def test_report_carries_ensemble_footer():
    metrics.reset_metrics()
    try:
        result = run("baroclinic_wave", _config(), steps=1, members=2)
        text = obs.report()
        footer = [
            line for line in text.splitlines()
            if line.startswith("ensemble:")
        ]
        assert len(footer) == 1
        assert "runs 1, members 2, member_steps 2," in footer[0]
        assert "compile_hits" in footer[0] and "compile_misses" in footer[0]
        alive = metrics.summary()["engines_alive"]
        assert alive >= 1  # this result's
        assert footer[0].endswith(f"engines_alive {alive}")
        (programs,) = [
            line for line in text.splitlines()
            if line.startswith("compile_cache:")
        ]
        assert "program_traces" in programs and "templates" in programs
        payload = json.loads(obs.to_json())
        assert payload["counters"]["ensemble"]["members"] == 2
        assert payload["counters"]["ensemble"]["member_steps"] == 2
        # the traced run nests per-member spans under the ensemble step
        names = text.splitlines()
        assert any("ensemble.step" in line for line in names)
        assert any("member[1]" in line for line in names)
        assert result.seconds > 0.0
    finally:
        metrics.reset_metrics()


def test_footer_absent_without_runs():
    metrics.reset_metrics()
    summary = metrics.summary()
    assert summary["runs"] == 0
    assert summary["compile_amortization"] is None
    from repro.obs.render import _footer

    assert [ln for ln in _footer() if ln.startswith("ensemble:")] == []


def test_metrics_accumulate_across_runs():
    metrics.reset_metrics()
    try:
        run("baroclinic_wave", _config(), steps=1)
        run("baroclinic_wave", _config(), steps=1, members=2)
        summary = metrics.summary()
        assert summary["runs"] == 2
        assert summary["members"] == 3
        assert summary["member_steps"] == 3
        assert summary["seconds"] > 0.0
    finally:
        metrics.reset_metrics()


def test_members_spread_is_visible_in_history():
    result = run("baroclinic_wave", _config(), steps=1, members=2, seed=8)
    winds = [m.history[0]["max_wind"] for m in result.members]
    assert winds[0] != winds[1]  # perturbed member diverges immediately
    assert np.all(np.isfinite(winds))


# ---------------------------------------------------------------------------
# nothing process-wide may keep a finished run alive
# ---------------------------------------------------------------------------
def test_finished_runs_are_released():
    """Templates and their plans hold no state array: the template store
    stops growing after the first call and a finished run's arrays
    die with its result — by reference counting, the cyclic collector
    off (``tests/run/test_teardown.py`` has the rest of the teardown)."""
    import gc
    import weakref

    from repro.runtime import compile_cache

    compile_cache.reset(clear=True)
    templates, state = [], None
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            result = run("baroclinic_wave", _config(), steps=1)
            if state is None:
                state = weakref.ref(result.engine.states[0].delp)
            del result
            templates.append(compile_cache.stats()["templates"])
    finally:
        if enabled:
            gc.enable()
    assert templates == [4, 4, 4]
    assert state() is None
    assert compile_cache.stats()["program_traces"] == 4
