"""The stencil modules' scratch lives in the arena's worker slabs, not on
the module objects: what that buys (a footprint that does not grow with
the number of ranks, sized before the first step) and what it demands
(no program reads a transient it did not write)."""

import hashlib

import numpy as np
import pytest

from repro.dsl import backends
from repro.fv3 import constants
from repro.fv3.stencils.remapping import hydrostatic_delz
from repro.orchestration import Transient
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.run import build_core, resolve_executor
from repro.runtime import pool as pool_module
from repro.runtime.pool import BufferPool, get_pool
from repro.scenarios import get_scenario
from tests.runtime.test_pool import needs_mincore, resident_pages

STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _core(executor="sequential", workers=None, **config):
    config = {"npx": 12, "npz": 4, **config}
    scenario = get_scenario("baroclinic_wave")
    config = scenario.default_config(**config)
    ex, _ = resolve_executor(executor, workers, config.total_ranks)
    return build_core("baroclinic_wave", config, executor=ex)


def _finish(core):
    core.finalize()
    core.executor.shutdown()


def _state(core):
    return [
        [getattr(s, f).copy() for f in STATE_FIELDS]
        + [t.copy() for t in s.tracers]
        for s in core.states
    ]


def test_no_module_keeps_an_array_for_its_scratch():
    core = _core()
    try:
        core.prepare()
        ac = core.acoustics
        declared = 0
        for module in (ac.riemann + ac.substeps + ac.d_sw + ac.transports
                       + ac.c_sw + core.remap + core.tracer_adv):
            for name, value in vars(module).items():
                declared += isinstance(value, Transient)
                if isinstance(value, np.ndarray):
                    # what is left on the modules is geometry
                    assert value.ndim < 3, (type(module).__name__, name)
        assert declared == 34 * core.partitioner.total_ranks
    finally:
        _finish(core)


def test_a_rank_keeps_five_arrays_between_programs():
    """Besides the state, what the step machinery holds for a rank is the
    four Courant-number and swept-area accumulators its sub-steps add to
    and the δp snapshot the tracer transport starts from: the C-grid
    fields c_sw hands d_sw are transients of the sub-step program."""
    from repro.lint.cli import _walk_repro_objects

    core = _core()
    try:
        core.prepare()
        state = {
            id(array) for s in core.states
            for array in [getattr(s, f) for f in STATE_FIELDS] + s.tracers
        }
        machinery = (core.acoustics, core.remap, core.tracer_adv,
                     core._delp_start)
        owned = {
            id(obj) for obj in _walk_repro_objects(machinery)
            if isinstance(obj, np.ndarray) and obj.ndim == 3
            and id(obj) not in state
        }
        assert len(owned) == 5 * core.partitioner.total_ranks
    finally:
        _finish(core)


def _step_arrays(core):
    """The five arrays of every held rank that carry no value from one
    step into the next."""
    return [
        array for r in core.ranks
        for array in (*core.acoustics.work[r].accumulators(),
                      core._delp_start[r])
    ]


def _digest(core) -> str:
    h = hashlib.sha256()
    for arrays in _state(core):
        for array in arrays:
            h.update(array.tobytes())
    return h.hexdigest()


def _driver(executor, **config):
    """A one-member c12·L4 driver (two rank threads under ``threads``)."""
    from repro.run import EnsembleDriver

    scenario = get_scenario("baroclinic_wave")
    return EnsembleDriver(
        "baroclinic_wave",
        scenario.default_config(**{"npx": 12, "npz": 4, **config}),
        members=(1,), seed=3, executor=executor, diagnostics=False,
        workers=2 if executor == "threads" else None,
    )


@pytest.mark.parametrize("executor", ["sequential", "threads"])
@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_a_steady_step_allocates_no_slab_and_checks_no_argument(
        backend, executor, monkeypatch):
    """``prepare()`` sizes the slab of every compute slot and binds every
    program to each of them: no step after it allocates a slab or checks
    a kernel argument, under rank threads too (where a slot first
    reached in a later step used to allocate one and check the plans
    that met it)."""
    from repro.sdfg import plan as plan_module

    monkeypatch.setattr(backends, "_default_backend", backend)
    pool = get_pool()
    with _driver(executor) as driver:
        driver.engine.prepare()
        for _ in range(5):
            allocations = pool.stats()["allocations"]
            checks = plan_module.COUNTERS.snapshot()["arg_checks"]
            driver.step(1)
            assert pool.stats()["allocations"] == allocations
            assert plan_module.COUNTERS.snapshot()["arg_checks"] == checks


def test_a_driver_call_gives_the_step_scratch_back_once(monkeypatch):
    """The pages go back when a driver's ``step``/``step_selected``
    returns, once whatever ``n`` is, also when a step raises; a core's
    own step keeps them."""
    from repro.fv3.dyncore import DynamicalCore

    trims = []
    release = DynamicalCore._release_step_scratch
    monkeypatch.setattr(DynamicalCore, "_release_step_scratch",
                        lambda self: trims.append(release(self)))
    with _driver("sequential") as driver:
        driver.engine.step_dynamics()
        assert trims == []
        driver.step(3)
        assert len(trims) == 1
        driver.step_selected([1], 2)
        assert len(trims) == 2

        def fail(self):
            raise RuntimeError("step failed")

        monkeypatch.setattr(DynamicalCore, "step_dynamics", fail)
        with pytest.raises(RuntimeError, match="step failed"):
            driver.step(2)
        assert len(trims) == 3


@needs_mincore
@pytest.mark.parametrize("executor", ["sequential", "threads"])
@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_between_steps_a_rank_holds_no_page_of_its_step_arrays(
        backend, executor, monkeypatch):
    """A driver step gives the kernel back the pages of the five step
    arrays of every rank and of every slab of the executor's compute
    slots. Nothing is re-allocated or re-bound: the next step keeps
    every slab, checks no kernel argument, allocates no slab and ends on
    the bits of a run that kept every page."""
    from repro.fv3.dyncore import DynamicalCore
    from repro.sdfg import plan as plan_module

    monkeypatch.setattr(backends, "_default_backend", backend)
    with monkeypatch.context() as keep:
        keep.setattr(DynamicalCore, "_release_step_scratch",
                     lambda self: None)
        with _driver(executor) as kept:
            kept.step(2)
            expected = _digest(kept.engine)
    pool = get_pool()
    with _driver(executor) as released:
        released.step(1)
        core = released.engine
        slabs = [s for w in core.executor.scratch for s in w.slabs]
        assert len(slabs) == core.executor.workers
        assert [resident_pages(a) for a in _step_arrays(core)] \
            == [0] * 5 * len(core.ranks)
        assert [resident_pages(s.data) for s in slabs] == [0] * len(slabs)
        checks = plan_module.COUNTERS.snapshot()["arg_checks"]
        before = pool.stats()
        released.step(1)
        after = pool.stats()
        assert [s for w in core.executor.scratch for s in w.slabs] == slabs
        assert after["released_bytes"] > before["released_bytes"]
        assert plan_module.COUNTERS.snapshot()["arg_checks"] == checks
        assert after["allocations"] == before["allocations"]
        assert _digest(core) == expected


@pytest.mark.parametrize("executor", ["sequential", "threads"])
@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_step_is_bit_identical_on_poisoned_scratch(backend, executor,
                                                   monkeypatch):
    """``pool.poison:p=1.0`` NaN-fills every buffer the arena hands out:
    a program that read a transient (or a scratch slot) before writing
    it would carry the NaN into the state."""
    monkeypatch.setattr(backends, "_default_backend", backend)
    clean = _core(executor)
    try:
        clean.step_dynamics()
        expected = _state(clean)
    finally:
        _finish(clean)
    pool = get_pool()
    poisoned = _core(executor)
    plan = ChaosPlan.from_spec("pool.poison:p=1.0")
    previous = chaos.set_plan(plan)
    try:
        before = pool.stats()["checkouts"]
        poisoned.step_dynamics()
        checkouts = pool.stats()["checkouts"] - before
        got = _state(poisoned)
    finally:
        chaos.set_plan(previous)
        _finish(poisoned)
    # every buffer of the step was poisoned, the module scratch included
    assert plan.consults("pool.poison") == checkouts > 0
    assert plan.counts()["pool.poison"] == checkouts
    for rank, (want, have) in enumerate(zip(expected, got)):
        for a, b in zip(want, have):
            np.testing.assert_array_equal(a, b, err_msg=f"rank {rank}")


def _arena_after_two_steps(monkeypatch, backend, workers=None, **config):
    """Pool counters and the traced plans after two steps (on ``workers``
    rank threads, or sequentially) in an arena of their own (the process
    arena's high water remembers earlier tests). The kernels are built
    first: a cold core's NumPy stand-ins take their own plans' slabs
    until the switch to C (``tests/runtime/test_tier.py``)."""
    from repro.lint.cli import _traced_programs
    from repro.runtime import jit

    monkeypatch.setattr(backends, "_default_backend", backend)
    primer = _core(**config)
    primer.prepare()
    jit.wait()
    _finish(primer)
    pool = BufferPool()
    monkeypatch.setattr(pool_module, "_POOL", pool)
    core = _core("threads" if workers else "sequential", workers, **config)
    try:
        core.step_dynamics()
        allocations = pool.stats()["allocations"]
        core.step_dynamics()
        stats = pool.stats()
        assert stats["allocations"] == allocations  # warm: nothing new
        assert stats["live_bytes"] == 0
        assert stats["idle_bytes"] == stats["high_water_bytes"]
        return stats, [plan for _, plan in _traced_programs(core)]
    finally:
        _finish(core)


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_scratch_does_not_scale_with_the_number_of_ranks(backend,
                                                         monkeypatch):
    """6 ranks and 24 ranks of the same per-rank shape leave the same
    arena behind: under the sequential executor one rank runs one
    program at a time, all of them in the one slab of the executor's
    slot, and the halo rotation's strip is a take of that slab too."""
    six, plans = _arena_after_two_steps(monkeypatch, backend, npx=12,
                                        layout=1)
    twenty_four, _ = _arena_after_two_steps(monkeypatch, backend, npx=24,
                                            layout=2)
    for key in ("peak_slabs", "largest_slab_bytes", "high_water_bytes"):
        assert six[key] == twenty_four[key], key
    assert six["high_water_bytes"] == max(p.runtime_bytes for p in plans)
    assert six["peak_slabs"] == 1


#: what a step's slabs add up to against the bytes their programs name:
#: the NumPy emission's planned values overlap more than the compiled
#: lowering's (0.68 of what is named at c12·L4), whose kernel locals are
#: registers and whose remaining values are mostly live at once
NAMED_SHARE = {"numpy": 0.5, "compiled": 0.7}


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_arena_is_the_largest_plan_not_the_sum_of_the_plans(backend,
                                                            monkeypatch):
    """The guard that keeps the fat from growing back: after two
    sequential steps the arena's high water is the widest program's
    slab, nowhere near one buffer per shape or one slab per program;
    under rank threads it is at most one such slab per compute slot."""
    stats, plans = _arena_after_two_steps(monkeypatch, backend)
    slabs = [plan.runtime_bytes for plan in plans]
    assert len(slabs) == 4 and min(slabs) > 0
    assert stats["largest_slab_bytes"] == max(slabs)
    assert stats["high_water_bytes"] == max(slabs)
    assert stats["peak_slabs"] == 1
    # and a slab is what its program keeps live, not what it ever names
    named = sum(sum(plan.plan_nbytes) for plan in plans)
    assert sum(slabs) < NAMED_SHARE[backend] * named
    threads, _ = _arena_after_two_steps(monkeypatch, backend, workers=2)
    assert threads["high_water_bytes"] <= 2 * max(slabs)
    assert threads["peak_slabs"] <= 2


def _transient_peak(sdfg) -> int:
    """The most bytes of transient values a program has to hold at once,
    from its SDFG's touches alone: a transient holds a value at a node
    that touches it and, from the node after the last writes that cover a
    later read (exact rectangles) up to that read; one the program zeroes
    or a callback may touch holds it from its first toucher to its
    last."""
    from repro.dsl.ir import expr_reads
    from repro.sdfg.analysis import access_range, coverage, kernel_statements
    from repro.sdfg.nodes import Callback, Kernel

    nodes = [node for state in sdfg.states for node in state.nodes]
    transients = set(sdfg.transients())
    whole = set(coverage(sdfg).transients_needing_zero)
    held = {name: set() for name in transients}
    writes = {}  # (position, transient) -> ranges written
    reads = []  # (position, transient, required, own writes ahead)
    for pos, node in enumerate(nodes):
        if isinstance(node, Callback):
            touched = transients if None in (node.reads, node.writes) \
                else transients & {*node.reads, *node.writes}
            whole |= touched
            for name in touched:
                held[name].add(pos)
            continue
        if not isinstance(node, Kernel):
            continue
        stmts = kernel_statements(node)
        own = {}
        for s in stmts:
            target = s.stmt.target.name
            if target in transients:
                held[target].add(pos)
                if s.active:
                    ranges = s.written(sdfg, node)
                    own.setdefault(target, []).append((s.idx, ranges))
                    writes.setdefault((pos, target), []).append(ranges)
        for s in stmts:
            for acc in expr_reads(s.stmt):
                if acc.name in transients:
                    held[acc.name].add(pos)
                if acc.name not in transients or not s.active or (
                    acc is s.stmt.target and s.paired
                ):
                    continue
                carried = (node.order == "FORWARD" and acc.offset[2] < 0) \
                    or (node.order == "BACKWARD" and acc.offset[2] > 0)
                reads.append((pos, acc.name, access_range(
                    sdfg, node, acc.name, acc.offset, s.ranges
                ), [r for idx, r in own.get(acc.name, ())
                    if idx < s.idx or carried]))
    for name in whole:
        if held[name]:
            held[name] = set(range(min(held[name]), max(held[name]) + 1))
    for pos, name, required, ahead in reads:
        if name in whole:
            continue
        rest = [required]
        for rng in ahead:
            rest = [p for r in rest for p in r.difference(rng)]
        start = pos
        while rest:
            start -= 1
            assert start >= 0, f"a read of {name} no write covers"
            for rng in writes.get((start, name), ()):
                rest = [p for r in rest for p in r.difference(rng)]
        held[name].update(range(start + 1, pos + 1))
    align = pool_module.ALIGN
    nbytes = {
        name: -(-int(np.prod(sdfg.arrays[name].shape))
                * np.dtype(sdfg.arrays[name].dtype).itemsize // align) * align
        for name in transients
    }
    return max(
        sum(nbytes[name] for name in transients if pos in held[name])
        for pos in range(len(nodes))
    )


#: ``AcousticSubstep``'s slab at c12·L4 while a transient held one value
#: from its first toucher to its last (16 and 28 values live at once)
ONE_LIFETIME_SLAB = {"numpy": 263_808, "compiled": 165_888}


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_the_sub_step_slab_is_what_its_transients_hold_at_once(
    backend, monkeypatch,
):
    """A transient is one value per generation: the sub-step's three
    inlined transports reuse the bytes of each other's intermediates, and
    the slab is the peak of what is live at once — on ``compiled`` the
    peak of the transient values the SDFG's touches call for (the
    kernels keep their locals in registers), on ``numpy`` with the
    expression scratch nested inside."""
    from repro.lint.cli import _traced_programs

    monkeypatch.setattr(backends, "_default_backend", backend)
    core = _core()
    try:
        core.step_dynamics()
        ((sdfg, plan),) = [(g, p) for g, p in _traced_programs(core)
                           if g.name == "AcousticSubstep"]
    finally:
        _finish(core)
    live, peak, transient_live, transient_peak = {}, 0, {}, 0
    values = set(plan._transient_values.values())
    for kind, value in plan.plan_events:
        if kind == "free":
            live.pop(value, None)
            transient_live.pop(value, None)
            continue
        nbytes = -(-plan.plan_nbytes[value] // pool_module.ALIGN) \
            * pool_module.ALIGN
        live[value] = nbytes
        if value in values:
            transient_live[value] = nbytes
        peak = max(peak, sum(live.values()))
        transient_peak = max(transient_peak, sum(transient_live.values()))
    assert transient_peak == _transient_peak(sdfg)
    assert plan.runtime_bytes == peak
    if backend == "compiled":
        assert plan.runtime_bytes == transient_peak
    assert plan.runtime_bytes < ONE_LIFETIME_SLAB[backend]


def test_checkouts_of_a_step_follow_from_its_plans(monkeypatch):
    """One take per call of a program that has scratch, one per rotated
    halo strip, nothing per value: the step's take count is known before
    it runs."""
    from repro.sdfg.plan import BoundPlan

    calls = []
    real = BoundPlan.__call__

    def counted(self, *args, **kwargs):
        calls.append(self.plan.runtime_bytes)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BoundPlan, "__call__", counted)
    pool = get_pool()
    core = _core()
    try:
        core.step_dynamics()  # traces; the second step is the steady one
        del calls[:]
        before = pool.stats()
        core.step_dynamics()
        after = pool.stats()
        cfg = core.config
        ranks = core.partitioner.total_ranks
        substeps = cfg.k_split * cfg.n_split
        # the Riemann solve and the rest of the sub-step (c_sw, d_sw, the
        # flux accumulation) per acoustic sub-step; tracers and the remap
        # per remapping step — every one of them has scratch
        assert len(calls) == ranks * (2 * substeps + 2 * cfg.k_split)
        with_scratch = sum(1 for nbytes in calls if nbytes)
        assert with_scratch == len(calls)
        # one vector exchange per sub-step; a strip arriving from a tile
        # whose axes are turned takes one scratch strip for its two
        # rotated components
        rotated = sum(
            1 for rank_plans in core.halo.plans for phase in rank_plans
            for plan in phase if plan.rotations
        )
        assert rotated == 12
        assert after["checkouts"] - before["checkouts"] \
            == with_scratch + rotated * substeps
        assert after["allocations"] == before["allocations"]
    finally:
        _finish(core)


SCENARIOS = ("resting_atmosphere", "rotated_transport", "solid_body_rotation")


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_poisoned_step_is_bit_identical_in_every_scenario(scenario, backend,
                                                          monkeypatch):
    """The other three scenarios of the registry on NaN-filled slabs
    (``baroclinic_wave`` is the test above)."""
    monkeypatch.setattr(backends, "_default_backend", backend)

    def stepped():
        core = build_core(
            scenario, get_scenario(scenario).default_config(npx=12, npz=4),
            executor="sequential",
        )
        try:
            core.step_dynamics()
            return _state(core)
        finally:
            _finish(core)

    expected = stepped()
    plan = ChaosPlan.from_spec("pool.poison:p=1.0")
    previous = chaos.set_plan(plan)
    try:
        got = stepped()
    finally:
        chaos.set_plan(previous)
    assert plan.counts()["pool.poison"] > 0
    for rank, (want, have) in enumerate(zip(expected, got)):
        for a, b in zip(want, have):
            np.testing.assert_array_equal(a, b, err_msg=f"rank {rank}")


def test_hydrostatic_delz_stencil_equals_the_numpy_glue_it_replaced():
    rng = np.random.default_rng(5)
    nx = ny = 6
    nk, h = 5, 3
    shape = (nx + 2 * h, ny + 2 * h, nk)
    pt = 250.0 + 50.0 * rng.random(shape)
    delp = 500.0 + 1000.0 * rng.random(shape)
    pe2 = np.cumsum(
        100.0 + 1000.0 * rng.random(shape[:2] + (nk + 1,)), axis=2
    )
    # hostile levels: NaN, ±0 and ±inf must come out of both forms alike
    pt[4, 4, 1] = np.nan
    pt[5, 4, 2] = -0.0
    delp[4, 5, 0] = 0.0
    delp[5, 5, 3] = -0.0
    pe2[6, 4, 2] = np.nan
    pe2[6, 5, 1:3] = 0.0
    pe2[7, 5, 3] = -0.0
    pe2[7, 6, 4] = np.inf
    sl = (slice(h, -h), slice(h, -h))
    with np.errstate(all="ignore"):
        p_mid = 0.5 * (pe2[sl][..., :-1] + pe2[sl][..., 1:])
        expected = (
            -constants.RDGAS * pt[sl] * delp[sl] / (constants.GRAV * p_mid)
        )
        for backend in ("numpy", "compiled"):
            delz = np.full(shape, 7.0)
            hydrostatic_delz(pt, delp, pe2, delz, backend=backend,
                             origin=(h, h, 0), domain=(nx, ny, nk))
            assert delz[sl].tobytes() == expected.tobytes(), backend
            # halo untouched: the levels only exist on the compute domain
            assert (delz[:h] == 7.0).all() and (delz[:, -h:] == 7.0).all()
