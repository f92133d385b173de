"""A core binds every program before its first step: what
``DynamicalCore.prepare`` covers is what a step runs, and a cold start
enters the C compiler once."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.dsl import backends
from repro.fv3.config import DynamicalCoreConfig
from repro.run import build_core
from repro.runtime import compile_cache as cc
from repro.runtime import jit
from repro.scenarios import available_scenarios, get_scenario
from tests.runtime.plan_keys import cache_key

SMALL = DynamicalCoreConfig(npx=12, npz=4, k_split=1, n_split=2)


@pytest.fixture(autouse=True)
def _fresh_templates():
    """Every test traces for itself: a program that ``prepare`` missed
    cannot hide behind a template an earlier test published."""
    cc.reset(clear=True)
    yield
    cc.reset(clear=True)


def _finish(core):
    core.finalize()
    core.executor.shutdown()


def _stored_texts(binding):
    """The kernel texts of a binding's plan as its record holds them: a
    plan drops its own once every kernel of it has been built."""
    key = cc.plan_key(binding.template.digest, binding.backend)
    image = cc.load_record(cc.record_name("p", key))
    return [unit.text for unit in image.units]


def _assert_same_state(core, clean):
    for got, want in zip(core.states, clean.states):
        for name in ("u", "v", "w", "pt", "delp", "delz"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(want, name))
        for tracer, reference in zip(got.tracers, want.tracers):
            np.testing.assert_array_equal(tracer, reference)


def _counts():
    stats, jstats = cc.stats(), jit.stats()
    return (stats["program_traces"], stats["program_binds"],
            jstats["kernels_requested"], jstats["builds"])


@pytest.mark.parametrize("layout", [1, 2])
@pytest.mark.parametrize("scenario", available_scenarios())
def test_a_prepared_core_steps_without_tracing_or_building(
    scenario, layout, monkeypatch
):
    """After ``prepare()`` a step traces nothing, binds nothing, asks the
    JIT for nothing and never enters the builder: a program left out of
    the list ``prepare`` walks would show up here as a late trace."""
    monkeypatch.setattr(backends, "_default_backend", "compiled")
    core = build_core(
        scenario, dataclasses.replace(SMALL, layout=layout),
        executor="sequential",
    )
    try:
        assert _counts()[:2] == (0, 0)  # constructing a core binds nothing
        before = [s.delp.copy() for s in core.states]
        core.prepare()
        prepared = _counts()
        ranks = core.partitioner.total_ranks
        assert prepared[0] + prepared[1] == 4 * ranks
        # ... and binding runs nothing
        assert core.step_count == 0
        for state, delp in zip(core.states, before):
            np.testing.assert_array_equal(state.delp, delp)
        core.prepare()  # idempotent
        assert _counts() == prepared
        core.step_dynamics()
        assert _counts() == prepared
    finally:
        _finish(core)


@pytest.mark.traced
def test_a_step_calls_each_program_as_often_as_declared():
    """``step_programs`` is what a step runs: on a c24 core one traced
    step enters each of the four programs its declared calls per step
    times on every held rank."""
    from repro import obs

    config = dataclasses.replace(
        get_scenario("baroclinic_wave").default_config(), k_split=2
    )
    assert (config.npx, config.layout) == (24, 1)
    core = build_core("baroclinic_wave", config, executor="sequential")
    try:
        core.step_dynamics()
        entered = Counter()

        def walk(span):
            for child in span.children.values():
                if child.name.startswith("program."):
                    entered[child.name] += child.count
                walk(child)

        walk(obs.get_tracer().root)
        declared = Counter()
        for rank in core.ranks:
            for call, calls in core.step_programs(rank):
                declared[f"program.{call.func.label}"] += calls
        assert len(declared) == 4
        assert entered == declared
    finally:
        _finish(core)


def test_modelling_a_step_leaves_the_programs_it_runs_alone():
    """``step_graphs`` hands out copies: the local bundle and the whole
    Fig. 7 pipeline on them leave every program's SDFG as traced, and
    the core then steps to the state of a core that was never modelled."""
    from repro.core.pipeline import (
        OptimizationPipeline,
        optimize_sdfg_locally,
    )

    modelled = build_core("baroclinic_wave", SMALL, executor="sequential")
    clean = build_core("baroclinic_wave", SMALL, executor="sequential")
    try:
        modelled.prepare()

        def traced():
            return [cache_key(call.func.sdfg)
                    for rank in modelled.ranks
                    for call, _ in modelled.step_programs(rank)]

        before = traced()
        for sdfg in modelled.step_graphs():
            optimize_sdfg_locally(sdfg)
        stages = OptimizationPipeline().run(modelled.step_graphs())
        assert stages[-1].modeled_time < stages[1].modeled_time
        assert traced() == before
        modelled.step_dynamics()
        clean.step_dynamics()
        _assert_same_state(modelled, clean)
    finally:
        _finish(modelled)
        _finish(clean)


def test_a_failed_build_is_a_fault_of_the_step():
    """``prepare`` runs inside the step: a compile that fails there is
    rolled back and retried under ``resilience=`` like any fault of the
    step, and without it the next step binds what is still missing."""
    from repro.resilience import GuardConfig, ResilienceConfig, chaos
    from repro.resilience.chaos import ChaosPlan
    from repro.resilience.errors import InjectedCompileError

    def core_failing_its_third_compile(**kwargs):
        cc.reset(clear=True)
        chaos.set_plan(ChaosPlan.from_spec("compile.fail@3"))
        return build_core("baroclinic_wave", SMALL, executor="sequential",
                          **kwargs)

    clean = build_core("baroclinic_wave", SMALL, executor="sequential")
    cores = [clean]
    try:
        clean.step_dynamics()
        guarded = core_failing_its_third_compile(
            resilience=ResilienceConfig(
                guard=GuardConfig(policy="rollback"), max_retries=2
            ),
        )
        cores.append(guarded)
        guarded.step_dynamics()
        bare = core_failing_its_third_compile()
        cores.append(bare)
        with pytest.raises(InjectedCompileError):
            bare.step_dynamics()
        assert bare.step_count == 0
        bare.step_dynamics()
        for core in (guarded, bare):
            _assert_same_state(core, clean)
    finally:
        chaos.set_plan(None)
        for core in cores:
            _finish(core)


@pytest.fixture()
def empty_store(monkeypatch, tmp_path):
    """The C engine on an empty kernel store, as a fresh process."""
    monkeypatch.setenv("REPRO_JIT", "cgen")
    jit.reset(engine=True)
    if jit._find_cc() is None:
        pytest.skip("no C compiler on this machine")
    monkeypatch.setattr(backends, "_default_backend", "compiled")
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    monkeypatch.setattr(jit, "_KERNELS", {})
    monkeypatch.setattr(jit, "_OBJECTS", {})
    yield tmp_path
    monkeypatch.delenv("REPRO_JIT", raising=False)
    jit.reset(engine=True)


def test_a_batch_that_failed_is_built_by_the_retry(empty_store):
    """On an empty store the third compile fails while the kernels of
    the first two programs are recorded and unbuilt: their plans are in
    the compile caches by then, holding flights that will never land.
    The retry's ``prepare`` asks for those kernels again and builds
    everything in its one batch."""
    from repro.resilience import GuardConfig, ResilienceConfig, chaos
    from repro.resilience.chaos import ChaosPlan

    chaos.set_plan(ChaosPlan.from_spec("compile.fail@3"))
    guarded = build_core(
        "baroclinic_wave", SMALL, executor="sequential",
        resilience=ResilienceConfig(
            guard=GuardConfig(policy="rollback"), max_retries=2
        ),
    )
    cores = [guarded]
    try:
        guarded.step_dynamics()
        assert chaos.get_plan().counts() == {"compile.fail": 1}
        chaos.set_plan(None)
        jit.wait()  # the retry's batch is built in the background
        stats = jit.stats()
        # the failed attempt built nothing; the retry, all 79 requests
        assert stats["builds"] == stats["background_builds"] == 1
        assert stats["kernels_built"] == 35
        failed = stats["kernels_requested"] - 79
        # the failed batch had recorded the kernels of the two programs
        # before the third, a text one plan asks for twice reused at once
        recorded = [
            text for call, _ in guarded.step_programs(0)[:2]
            for text in _stored_texts(call.func._state.binding)
        ]
        assert None not in recorded
        assert failed == len(recorded) > 0
        assert stats["kernels_reused"] \
            == 44 + len(recorded) - len(set(recorded))
        clean = build_core("baroclinic_wave", SMALL, executor="sequential")
        cores.append(clean)
        clean.step_dynamics()
        assert jit.stats()["builds"] == 1
        _assert_same_state(guarded, clean)
    finally:
        chaos.set_plan(None)
        for core in cores:
            _finish(core)


def test_a_step_runs_once_the_compiler_takes_what_it_rejected(
    empty_store, monkeypatch, tmp_path_factory
):
    """A compiler that rejects the batch's units fails the flights of
    every cached plan in the background, while the first step runs on
    the NumPy stand-ins; the next step boundary asks again and fails
    before the step runs anything. With the compiler mended the same
    core's next step asks again, builds and runs."""
    real = jit._find_cc()
    bin_dir = tmp_path_factory.mktemp("bin")
    broken = bin_dir / "broken"
    wrapper = bin_dir / "pickycc"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'if [ -e {broken} ]; then case "$*" in *repro_o_*)\n'
        '  echo "pickycc: rejected" >&2; exit 1;; esac; fi\n'
        f'exec {real} "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setenv("REPRO_CC", str(wrapper))
    broken.touch()
    core = build_core("baroclinic_wave", SMALL, executor="sequential")
    cores = [core]
    try:
        core.step_dynamics()  # on the stand-ins
        jit.wait()
        assert jit.stats()["kernels_built"] == 0 and jit._KERNELS == {}
        with pytest.raises(jit.JitCompileError, match="pickycc: rejected"):
            core.step_dynamics()
        assert core.step_count == 1
        assert jit.stats()["kernels_built"] == 0 and jit._KERNELS == {}
        assert [p.name for p in empty_store.iterdir() if ".tmp" in p.name] \
            == []
        broken.unlink()
        core.step_dynamics()
        stats = jit.stats()
        assert stats["builds"] == 3 and stats["kernels_built"] > 0
        assert cc.stats()["plan_swaps"] == cc.stats()["standins"] == 4
        clean = build_core("baroclinic_wave", SMALL, executor="sequential")
        cores.append(clean)
        clean.step_dynamics()
        clean.step_dynamics()
        assert jit.stats()["kernels_built"] == stats["kernels_built"]
        _assert_same_state(core, clean)
    finally:
        for core in cores:
            _finish(core)


def test_a_cold_default_run_enters_the_builder_once(empty_store):
    """The default c24 L10 configuration on an empty kernel store: all
    4 programs' kernels go to the compiler together — at most one
    translation unit per CPU — and the 79 kernels they ask for are 35
    distinct texts (a stencil applied to differently named fields is one
    kernel)."""
    config = get_scenario("baroclinic_wave").default_config()
    assert (config.npx, config.npz) == (24, 10)
    core = build_core("baroclinic_wave", config, executor="sequential")
    try:
        core.prepare()
        jit.wait()  # the batch is built in the background
        stats = jit.stats()
        assert stats["builds"] == stats["background_builds"] == 1
        assert 1 <= stats["compiles"] <= max(1, jit._build_width() - 1)
        assert (stats["kernels_requested"], stats["kernels_built"],
                stats["kernels_reused"]) == (79, 35, 44)
        assert len(list(empty_store.glob("repro_o_*.so"))) \
            == stats["compiles"]
        core.step_dynamics()
        assert jit.stats()["builds"] == 1
        assert jit.stats()["kernels_requested"] == 79
    finally:
        _finish(core)


def test_a_seeded_compile_fault_hits_the_same_program_cold_and_primed():
    """``compile.fail`` is consulted once per plan *obtained*, whether it
    is compiled or materialised from its record: the third consult is
    the same program on an empty and on a primed directory, and the
    retry compiles in the one case and restores in the other."""
    from repro.resilience import GuardConfig, ResilienceConfig, chaos
    from repro.resilience.chaos import ChaosPlan

    def guarded_step():
        cc.reset(clear=True)  # memory only: the records stay
        plan = ChaosPlan.from_spec("compile.fail@3")
        chaos.set_plan(plan)
        core = build_core(
            "baroclinic_wave", SMALL, executor="sequential",
            resilience=ResilienceConfig(
                guard=GuardConfig(policy="rollback"), max_retries=2
            ),
        )
        try:
            core.step_dynamics()
        finally:
            chaos.set_plan(None)
        return core, plan.trace(), plan.consults("compile.fail"), cc.stats()

    cores = []
    try:
        cold, cold_faults, cold_consults, cold_stats = guarded_step()
        cores.append(cold)
        primed, primed_faults, primed_consults, primed_stats = guarded_step()
        cores.append(primed)
        assert len(cold_faults) == 1 and primed_faults == cold_faults
        assert cold_faults[0]["occurrence"] == 3
        assert primed_consults == cold_consults == 5  # 4 plans + the retry
        # the failed third program left no template behind when it was
        # being traced, and one when it had been restored
        assert (cold_stats["program_traces"], cold_stats["misses"]) == (5, 4)
        assert cold_stats["programs_stored"] == 4
        assert (primed_stats["program_traces"], primed_stats["misses"],
                primed_stats["hits"]) == (0, 0, 4)
        assert primed_stats["programs_restored"] == 4
        _assert_same_state(primed, cold)
    finally:
        for core in cores:
            _finish(core)


def test_restored_programs_lint_like_traced_ones():
    """``repro.lint --scenario`` takes a step and lints what the step
    bound; what it finds in programs that came from their records is
    what it finds in the traces that wrote them: nothing."""
    from repro.lint.cli import lint_scenario

    def summary(findings):
        return sorted((f.rule, f.subject, f.message) for f in findings)

    traced = lint_scenario("baroclinic_wave")
    assert cc.stats()["program_traces"] == 4
    cc.reset(clear=True)
    restored = lint_scenario("baroclinic_wave")
    assert cc.stats()["program_traces"] == 0
    assert cc.stats()["programs_restored"] == 4
    assert summary(restored) == summary(traced)
    assert not [f for f in restored if not f.suppressed]
