"""The stencil modules' scratch lives in the buffer arena, not on the
module objects: what that buys (a footprint that does not grow with the
number of ranks) and what it demands (no program reads a transient it
did not write)."""

import numpy as np
import pytest

from repro.dsl import backends
from repro.fv3 import constants
from repro.fv3.stencils.remapping import hydrostatic_delz
from repro.orchestration import Transient
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.run import build_core
from repro.runtime.pool import BufferPool, get_pool
from repro.scenarios import get_scenario

STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _core(executor="sequential", **config):
    config = {"npx": 12, "npz": 4, **config}
    scenario = get_scenario("baroclinic_wave")
    return build_core(
        "baroclinic_wave", scenario.default_config(**config),
        executor=executor,
    )


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


def _arena_after_two_steps(monkeypatch, **config):
    """Pool counters and the traced plans after two steps in an arena of
    their own (the process arena's high water remembers earlier tests)."""
    from repro.lint.cli import _traced_programs
    from repro.runtime import pool as pool_module

    pool = BufferPool()
    monkeypatch.setattr(pool_module, "_POOL", pool)
    core = _core(**config)
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


def test_scratch_does_not_scale_with_the_number_of_ranks(monkeypatch):
    """6 ranks and 24 ranks of the same per-rank shape leave the same
    arena behind: under the sequential executor one rank runs one
    program at a time, and all of them run in the same slab."""
    six, _ = _arena_after_two_steps(monkeypatch, npx=12, layout=1)
    twenty_four, _ = _arena_after_two_steps(monkeypatch, npx=24, layout=2)
    for key in ("peak_slabs", "largest_slab_bytes"):
        assert six[key] == twenty_four[key], key
    # the second slab is the halo rotation's: a strip of edge cells
    for stats in (six, twenty_four):
        rest = stats["high_water_bytes"] - stats["largest_slab_bytes"]
        assert 0 < rest < 0.01 * stats["largest_slab_bytes"]


def test_arena_is_the_largest_plan_not_the_sum_of_the_plans(monkeypatch):
    """The guard that keeps the fat from growing back: after two
    sequential steps the arena's high water is the widest program's slab
    (plus the halo rotation's second scratch array), nowhere near one
    buffer per shape or one slab per program."""
    stats, plans = _arena_after_two_steps(monkeypatch)
    slabs = [plan.runtime_bytes for plan in plans]
    assert len(slabs) == 4 and min(slabs) > 0
    assert stats["largest_slab_bytes"] == max(slabs)
    assert stats["high_water_bytes"] <= 1.1 * max(slabs)
    # no second program's slab is live beside the widest one
    assert stats["high_water_bytes"] < max(slabs) + min(slabs)
    assert stats["peak_slabs"] == 2
    # and a slab is what its program keeps live, not what it ever names
    named = sum(sum(plan.plan_nbytes) for plan in plans)
    assert sum(slabs) < 0.5 * named


def test_checkouts_of_a_step_follow_from_its_plans(monkeypatch):
    """One slab per call of a program that has scratch, two arrays per
    rotated halo strip, nothing per value: the step's checkout count is
    known before it runs."""
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
        # whose axes are turned takes two scratch arrays
        rotated = sum(
            1 for rank_plans in core.halo.plans for phase in rank_plans
            for plan in phase if plan.rotations
        )
        assert rotated == 12
        assert after["checkouts"] - before["checkouts"] \
            == with_scratch + 2 * rotated * substeps
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
