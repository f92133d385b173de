"""The stencil modules' scratch lives in the buffer arena, not on the
module objects: what that buys (a footprint that does not grow with the
number of ranks) and what it demands (no program reads a transient it
did not write)."""

import numpy as np
import pytest

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
        ac = core.acoustics
        declared = 0
        for module in (ac.riemann + ac.d_sw + ac.transports + ac.c_sw
                       + core.remap + core.tracer_adv):
            for name, value in vars(module).items():
                declared += isinstance(value, Transient)
                if isinstance(value, np.ndarray):
                    # what is left on the modules is geometry
                    assert value.ndim < 3, (type(module).__name__, name)
        assert declared == 29 * core.partitioner.total_ranks
    finally:
        _finish(core)


@pytest.mark.parametrize("executor", ["sequential", "threads"])
@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_step_is_bit_identical_on_poisoned_scratch(backend, executor,
                                                   monkeypatch):
    """``pool.poison:p=1.0`` NaN-fills every buffer the arena hands out:
    a program that read a transient (or a scratch slot) before writing
    it would carry the NaN into the state."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
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


def _arena_after_two_steps(**config):
    pool = get_pool()
    core = _core(**config)
    try:
        pool.clear()
        assert pool.stats()["idle_bytes"] == 0
        core.step_dynamics()
        allocations = pool.stats()["allocations"]
        core.step_dynamics()
        stats = pool.stats()
        assert stats["allocations"] == allocations  # warm: nothing new
        assert stats["live_bytes"] == 0
        field = BufferPool.key(core.states[0].delp.shape, np.float64)
        return stats["idle_bytes"], len(pool._free[field])
    finally:
        _finish(core)


def test_scratch_does_not_scale_with_the_number_of_ranks():
    """6 ranks and 24 ranks of the same per-rank shape leave the same
    arena behind: under the sequential executor one rank runs one
    program at a time, and all of them draw from the same buffers."""
    six = _arena_after_two_steps(npx=12, layout=1)
    twenty_four = _arena_after_two_steps(npx=24, layout=2)
    assert six == twenty_four
    # full fields in the arena: what the widest program holds at once
    # (transport_fields and tracer advection, 11 each) — not the 27 a
    # rank's modules declare, times the ranks
    assert six[1] == 11


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
        for backend in ("numpy", "dataflow", "compiled"):
            delz = np.full(shape, 7.0)
            hydrostatic_delz(pt, delp, pe2, delz, backend=backend,
                             origin=(h, h, 0), domain=(nx, ny, nk))
            assert delz[sl].tobytes() == expected.tobytes(), backend
            # halo untouched: the levels only exist on the compute domain
            assert (delz[:h] == 7.0).all() and (delz[:, -h:] == 7.0).all()
