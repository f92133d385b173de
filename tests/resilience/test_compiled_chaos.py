"""Chaos-smoke on the compiled backend: an injected ``stencil.nanflip``
is caught by the state guards and rolled back exactly as on the default
backend, and the recovered run is bit-identical to a fault-free run —
the JITted loop nests compose with the PR-4 resilience machinery."""

import numpy as np
import pytest

from repro import resilience
from repro.dsl import default_backend
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.resilience import GuardConfig, ResilienceConfig, chaos
from repro.resilience.chaos import ChaosPlan
from repro.runtime import jit

pytestmark = pytest.mark.skipif(
    not jit.available(),
    reason="compiled backend: no JIT engine (no C compiler found)",
)

CFG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
    n_tracers=1,
)
ROLLBACK = ResilienceConfig(
    guard=GuardConfig(policy="rollback"), max_retries=4
)
FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _run(backend, plan=None, res=None, steps=2):
    chaos.set_plan(plan)
    with default_backend(backend):
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


def test_nanflip_rollback_recovers_bit_identical_on_compiled():
    clean = _run("compiled")
    plan = ChaosPlan.from_spec("seed=7;stencil.nanflip@26")
    faulty = _run("compiled", plan, ROLLBACK)
    assert plan.counts() == {"stencil.nanflip": 1}
    counters = resilience.summary()["counters"]
    assert counters["guard_trips"] >= 1
    assert counters["rollbacks"] >= 1
    _assert_bit_identical(clean, faulty)


def test_compiled_recovery_matches_default_backend():
    """The recovered compiled-backend state equals the recovered
    default-backend state — recovery does not depend on the backend."""
    plan_spec = "seed=7;stencil.nanflip@26"
    a = _run("compiled", ChaosPlan.from_spec(plan_spec), ROLLBACK)
    resilience.reset()
    b = _run(default_backend(), ChaosPlan.from_spec(plan_spec), ROLLBACK)
    _assert_bit_identical(a, b)
