"""Regression guard: with resilience disabled the hot path is untouched —
no extra pool allocations in steady state, no counter movement, and no
chaos consults on any call site."""

import numpy as np

from repro import resilience
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.resilience import chaos
from repro.runtime.pool import get_pool

CFG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=1,
    n_tracers=1,
)


def test_disabled_resilience_is_invisible():
    """No plan, no ResilienceConfig ⇒ the fault-injection sites, guard
    hooks and retry machinery leave no trace at all."""
    assert chaos.get_plan() is None
    core = DynamicalCore(CFG)
    core.step_dynamics()
    assert core._guard is None
    counters = resilience.summary()["counters"]
    assert not any(counters.values()), counters


def test_steady_state_step_allocates_nothing_extra():
    """After warm-up, a dyncore step with resilience disabled performs
    zero new pool allocations — same budget as the seed."""
    core = DynamicalCore(CFG)
    core.step_dynamics()  # warm-up: seeds halo scratch in the pool
    pool = get_pool()
    before = pool.stats()
    for _ in range(2):
        core.step_dynamics()
    after = pool.stats()
    assert after["allocations"] == before["allocations"]
    assert after["allocated_bytes"] == before["allocated_bytes"]


def test_guarded_and_unguarded_runs_bit_identical():
    """Wiring a guard (without any faults) must not perturb the model:
    the guard scans are read-only and the retry loop never engages."""
    from repro.resilience import GuardConfig, ResilienceConfig

    plain = DynamicalCore(CFG)
    guarded = DynamicalCore(
        CFG,
        resilience=ResilienceConfig(guard=GuardConfig(policy="rollback")),
    )
    for _ in range(2):
        plain.step_dynamics()
        guarded.step_dynamics()
    for sa, sb in zip(plain.states, guarded.states):
        for f in ("u", "v", "w", "pt", "delp", "delz"):
            np.testing.assert_array_equal(getattr(sa, f), getattr(sb, f))
    assert resilience.summary()["counters"]["rollbacks"] == 0


def test_no_chaos_consults_without_plan():
    """Call sites guard with a single attribute load: with no plan
    installed, nothing is counted anywhere."""
    core = DynamicalCore(CFG)
    core.step_dynamics()
    assert chaos.get_plan() is None  # still none — nothing installed one
