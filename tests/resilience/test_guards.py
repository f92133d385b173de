"""State guards: detection, policy validation, zero-allocation scans."""

import numpy as np
import pytest

from repro.fv3.initial import RankFields
from repro.resilience.guards import GuardConfig, GuardViolation, StateGuard
from repro.runtime.pool import get_pool


def _state(shape=(6, 6, 3), n_tracers=2):
    rng = np.random.default_rng(0)
    return RankFields(
        u=rng.normal(0, 10, shape),
        v=rng.normal(0, 10, shape),
        w=rng.normal(0, 1, shape),
        pt=np.full(shape, 280.0),
        delp=np.full(shape, 500.0),
        delz=np.full(shape, -100.0),
        tracers=[rng.random(shape) for _ in range(n_tracers)],
    )


def test_clean_state_passes():
    guard = StateGuard()
    assert guard.check_states([_state(), _state()]) == []
    assert guard.checks == 1 and guard.trips == 0


def test_nan_and_inf_detected_with_counts():
    state = _state()
    state.pt[1, 2, 0] = np.nan
    state.u[0, 0, 1] = np.inf
    state.tracers[1][3, 3, 2] = np.nan
    violations = StateGuard().check_states([_state(), state], step=4)
    got = {(v.rank, v.field): (v.kind, v.value, v.step) for v in violations}
    assert got == {
        (1, "pt"): ("nonfinite", 1, 4),
        (1, "u"): ("nonfinite", 1, 4),
        (1, "tracer1"): ("nonfinite", 1, 4),
    }


def test_nonpositive_delp_detected():
    state = _state()
    state.delp[2, 2, 1] = -3.0
    (violation,) = StateGuard().check_states([state])
    assert (violation.field, violation.kind) == ("delp", "nonpositive")
    assert violation.value == -3.0


def test_wind_bound():
    state = _state()
    state.v[1, 1, 0] = -500.0
    (violation,) = StateGuard(GuardConfig(max_wind=300.0)).check_states(
        [state]
    )
    assert (violation.field, violation.kind) == ("v", "wind_bound")
    assert violation.value == 500.0
    # bound disabled: clean
    assert StateGuard(GuardConfig(max_wind=0.0)).check_states([state]) == []


def test_policy_validated():
    with pytest.raises(ValueError, match="unknown guard policy"):
        GuardConfig(policy="explode")


def test_violation_messages_name_everything():
    text = str(GuardViolation(3, "delp", "nonpositive", -1.5, step=9))
    assert "rank 3" in text and "'delp'" in text and "step 9" in text


def test_guard_scan_allocates_nothing_in_steady_state():
    states = [_state(), _state()]
    guard = StateGuard()
    guard.check_states(states)  # warm-up sizes the thread's slab
    pool = get_pool()
    before = pool.stats()
    for _ in range(3):
        assert guard.check_states(states) == []
    after = pool.stats()
    assert after["allocations"] == before["allocations"]
    assert after["allocated_bytes"] == before["allocated_bytes"]
    # every scan took its mask from the thread's scratch
    assert after["checkouts"] > before["checkouts"]
