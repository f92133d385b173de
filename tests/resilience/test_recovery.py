"""End-to-end recovery: a seeded chaos run finishes bit-identical to a
fault-free run, with the recovery path visible in counters and in the
obs report, and replays exactly from the recorded seed."""

import numpy as np
import pytest

from repro import resilience
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.resilience import GuardConfig, ResilienceConfig, chaos
from repro.resilience.chaos import ChaosPlan
from repro.resilience.errors import (
    GuardError,
    GuardWarning,
    RetriesExhaustedError,
)

CFG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
    n_tracers=1,
)

#: drops one halo message, corrupts another, poisons one pool buffer and
#: flips one NaN into a stencil's output — all within a two-step run.
#: A halo message is one neighbor's share of one exchange phase, every
#: field of the exchange packed in it: 24 an exchange here, the winds'
#: and the scalars' phase 0 first. The 11th is a scalar message of the
#: first attempt, the 40th a phase-1 scalar message of that attempt, which
#: rank 5 then waits for in vain (ranks 0–4 have run their sub-step
#: programs by then).
#: Inside a program ``stencil.nanflip`` is consulted once per kernel that
#: writes a field of the program's caller: the 26th of a run is rank 0's
#: first flux accumulation (six Riemann solves of three such kernels,
#: then the seven d_sw kernels ahead of it in rank 0's sub-step program,
#: whose c_sw writes transients only); the 264th is the same in the
#: second step (180 a step, and 58 in the attempt the dropped message
#: cut short: the six Riemann solves and five sub-step programs of eight
#: such kernels): an output every element of which is read again, so the
#: NaN cannot be absorbed by a halo update
CHAOS_SPEC = (
    "seed=7;halo.drop@40;halo.corrupt@11;pool.poison@3;stencil.nanflip@264"
)

ROLLBACK = ResilienceConfig(
    guard=GuardConfig(policy="rollback"), max_retries=4
)

FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _run(plan=None, res=None, steps=2):
    chaos.set_plan(plan)
    core = DynamicalCore(CFG, resilience=res)
    for _ in range(steps):
        core.step_dynamics()
    chaos.set_plan(None)
    return core


def _assert_bit_identical(a, b):
    for r, (sa, sb) in enumerate(zip(a.states, b.states)):
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(sa, f), getattr(sb, f), err_msg=f"rank {r} {f}"
            )
        for t, (ta, tb) in enumerate(zip(sa.tracers, sb.tracers)):
            np.testing.assert_array_equal(ta, tb, err_msg=f"tracer {t}")


@pytest.fixture(scope="module")
def clean_run():
    return _run()


def test_chaos_run_recovers_bit_identical(clean_run):
    plan = ChaosPlan.from_spec(CHAOS_SPEC)
    faulty = _run(plan, ROLLBACK)
    # every planned fault actually fired …
    assert plan.counts() == {
        "halo.drop": 1,
        "halo.corrupt": 1,
        "pool.poison": 1,
        "stencil.nanflip": 1,
    }
    # … the recovery path is visible …
    counters = resilience.summary()["counters"]
    assert counters["rollbacks"] >= 2  # drop timeout + guard trips
    assert counters["retries"] == counters["rollbacks"]
    assert counters["halo_timeouts"] == 1
    assert counters["guard_trips"] >= 1
    # … and the result is bit-identical to the fault-free run (the
    # poison was absorbed by the overwrite discipline, everything else
    # was rolled back and re-advanced)
    _assert_bit_identical(clean_run, faulty)


def test_chaos_replay_is_deterministic(clean_run):
    plan_a = ChaosPlan.from_spec(CHAOS_SPEC)
    run_a = _run(plan_a, ROLLBACK)
    trace_a = plan_a.trace()
    counters_a = dict(resilience.summary()["counters"])

    resilience.reset()
    plan_b = ChaosPlan.from_spec(plan_a.replay_spec())
    run_b = _run(plan_b, ROLLBACK)
    # same seed ⇒ same injected fault sequence ⇒ same recovery trace
    assert plan_b.trace() == trace_a
    assert dict(resilience.summary()["counters"]) == counters_a
    _assert_bit_identical(run_a, run_b)


def test_corrupted_packed_message_trips_the_guard_and_rolls_back(
    clean_run,
):
    """A NaN written into one packed halo message (rank 2's phase-0
    scalars for rank 1: δp, pt and w in one payload) reaches the state,
    trips the guard, and the rolled-back step ends on the fault-free
    state."""
    plan = ChaosPlan.from_spec("seed=7;halo.corrupt@11")
    faulty = _run(plan, ROLLBACK)
    (fault,) = plan.injected
    assert (fault.site, fault.detail["source"], fault.detail["dest"]) == (
        "halo.corrupt", 2, 1,
    )
    counters = resilience.summary()["counters"]
    assert counters["guard_trips"] == 1
    assert counters["rollbacks"] == 1
    _assert_bit_identical(clean_run, faulty)


def test_recovery_shows_in_obs_report(clean_run):
    import repro.obs as obs

    plan = ChaosPlan.from_spec("seed=7;stencil.nanflip@26")
    obs.enable()
    try:
        _run(plan, ROLLBACK, steps=1)
        # _run cleared the active plan; reinstate it so the report can
        # attribute the injected faults
        chaos.set_plan(plan)
        text = obs.report()
        (line,) = [ln for ln in text.splitlines()
                   if ln.startswith("chaos: ")]
        assert "injected (stencil.nanflip 1), injected_total 1" in line
        (line,) = [ln for ln in text.splitlines()
                   if ln.startswith("resilience: ")]
        assert "guard_trips 1," in line and "rollbacks 1," in line
        payload = obs.to_json()
        assert '"rollbacks": 1' in payload
    finally:
        obs.disable()
        obs.reset()
        chaos.set_plan(None)


def test_retry_budget_exhaustion():
    """A fault that refires on every attempt exhausts the budget."""
    plan = ChaosPlan.from_spec("seed=1;stencil.nanflip@1+1")  # every call
    chaos.set_plan(plan)
    res = ResilienceConfig(
        guard=GuardConfig(policy="rollback"), max_retries=2
    )
    core = DynamicalCore(CFG, resilience=res)
    with pytest.raises(RetriesExhaustedError, match="2 rollback"):
        core.step_dynamics()
    assert resilience.summary()["counters"]["retries"] == 3  # 1 + 2 retries


def test_guard_policy_raise_fails_fast():
    plan = ChaosPlan.from_spec("seed=7;stencil.nanflip@26")
    chaos.set_plan(plan)
    res = ResilienceConfig(guard=GuardConfig(policy="raise"))
    core = DynamicalCore(CFG, resilience=res)
    with pytest.raises(GuardError, match="non-finite"):
        core.step_dynamics()
    assert resilience.summary()["counters"]["rollbacks"] == 0


def test_guard_policy_warn_continues():
    plan = ChaosPlan.from_spec("seed=7;stencil.nanflip@26")
    chaos.set_plan(plan)
    res = ResilienceConfig(guard=GuardConfig(policy="warn"))
    core = DynamicalCore(CFG, resilience=res)
    with pytest.warns(GuardWarning, match="non-finite"):
        core.step_dynamics()
    assert core.step_count == 1
    assert resilience.summary()["counters"]["guard_trips"] == 1
    assert resilience.summary()["counters"]["rollbacks"] == 0
