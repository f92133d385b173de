"""Ensemble determinism: batching must never change the answer.

The driver steps every member through one shared engine core; these
tests pin down the contract that makes that safe — a member's
trajectory is a pure function of (scenario, config, root seed, member
id), regardless of batch composition, executor, interruption or
engine reuse.
"""

import numpy as np
import pytest

from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.resilience import ResilienceConfig
from repro.run import EnsembleDriver, member_rng, run
from repro.scenarios import get_scenario

FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _config(**overrides):
    base = dict(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
        n_tracers=1,
    )
    base.update(overrides)
    return DynamicalCoreConfig(**base)


def _assert_members_equal(a, b, context=""):
    """Compare two members' per-rank states (anything with .states, or
    plain state lists)."""
    a = getattr(a, "states", a)
    b = getattr(b, "states", b)
    for rank, (sa, sb) in enumerate(zip(a, b)):
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(sa, f), getattr(sb, f),
                err_msg=f"{context}: rank {rank} field {f}",
            )
        for t, (ta, tb) in enumerate(zip(sa.tracers, sb.tracers)):
            np.testing.assert_array_equal(
                ta, tb, err_msg=f"{context}: rank {rank} tracer {t}"
            )


# ---------------------------------------------------------------------------
# seeding contract
# ---------------------------------------------------------------------------
def test_member_rng_contract():
    assert member_rng(42, 0) is None  # member 0 is the control
    a = member_rng(42, 3).standard_normal(8)
    b = member_rng(42, 3).standard_normal(8)
    c = member_rng(42, 4).standard_normal(8)
    d = member_rng(43, 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0.0
    assert np.abs(a - d).max() > 0.0


def test_members_actually_spread():
    result = run("baroclinic_wave", _config(), steps=1, members=3, seed=5)
    control = result.member(0)
    for k in (1, 2):
        member = result.member(k)
        deltas = [
            float(np.abs(sa.u - sb.u).max())
            for sa, sb in zip(control.states, member.states)
        ]
        assert max(deltas) > 0.0, f"member {k} is identical to the control"


# ---------------------------------------------------------------------------
# bit-identical invariances
# ---------------------------------------------------------------------------
def test_rerun_is_bit_identical():
    first = run("baroclinic_wave", _config(), steps=2, members=3, seed=9)
    second = run("baroclinic_wave", _config(), steps=2, members=3, seed=9)
    for k in range(3):
        _assert_members_equal(
            first.member(k), second.member(k), f"re-run member {k}"
        )


def test_member_alone_matches_member_in_batch():
    batch = run("baroclinic_wave", _config(), steps=2, members=3, seed=9)
    for k in (0, 2):
        alone = run("baroclinic_wave", _config(), steps=2, members=(k,),
                    seed=9)
        assert [m.member for m in alone.members] == [k]
        _assert_members_equal(
            batch.member(k), alone.member(k), f"member {k} alone vs batch"
        )


def test_control_member_matches_direct_core_stepping():
    """The facade with members=1 reproduces a hand-built
    DynamicalCore run exactly — the engine swap adds nothing."""
    cfg = _config()
    result = run("baroclinic_wave", cfg, steps=2)
    core = DynamicalCore(
        cfg, init=get_scenario("baroclinic_wave").initializer()
    )
    core.step_dynamics()
    core.step_dynamics()
    member = result.member(0)
    for rank, state in enumerate(core.states):
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(member.states[rank], f), getattr(state, f),
                err_msg=f"facade vs direct core: rank {rank} field {f}",
            )


def test_threaded_executor_is_bit_identical():
    sequential = run("baroclinic_wave", _config(), steps=1, members=2,
                     seed=3, executor="sequential")
    threaded = run("baroclinic_wave", _config(), steps=1, members=2,
                   seed=3, executor="threads")
    for k in range(2):
        _assert_members_equal(
            sequential.member(k), threaded.member(k),
            f"threads vs sequential member {k}",
        )


# ---------------------------------------------------------------------------
# per-member checkpoint/restart
# ---------------------------------------------------------------------------
def test_checkpoint_restore_matches_uninterrupted(tmp_path):
    with EnsembleDriver("baroclinic_wave", _config(), members=2,
                        seed=7, diagnostics=False) as uninterrupted:
        uninterrupted.step(3)
        expected = uninterrupted.members[1]

        with EnsembleDriver("baroclinic_wave", _config(), members=2,
                            seed=7, diagnostics=False) as interrupted:
            interrupted.step(1)
            path = interrupted.checkpoint_member(
                1, tmp_path / "member1.npz"
            )

            # a fresh driver (fresh process, conceptually) resumes
            # member 1 mid-run and must land on the same trajectory
            with EnsembleDriver("baroclinic_wave", _config(), members=2,
                                seed=7, diagnostics=False) as resumed:
                meta = resumed.restore_member(1, path)
                assert int(meta["step"]) == 1
                assert int(meta["member"]) == 1
                resumed.step(2)
                restored = resumed.members[1]
                assert restored.step_count == 3
                _assert_members_equal(
                    expected.states, restored.states,
                    "checkpoint/restore member 1",
                )


def test_periodic_checkpoints_land_in_member_subdirs(tmp_path):
    res = ResilienceConfig(
        checkpoint_every=1, checkpoint_dir=str(tmp_path / "ckpt")
    )
    result = run("baroclinic_wave", _config(), steps=2, members=2,
                 resilience=res)
    assert result.steps == 2
    for member in (0, 1):
        member_dir = tmp_path / "ckpt" / f"member{member:03d}"
        written = sorted(p.name for p in member_dir.glob("*.npz"))
        assert written == ["ckpt_step000001.npz", "ckpt_step000002.npz"]


# ---------------------------------------------------------------------------
# driver surface
# ---------------------------------------------------------------------------
def test_member_ids_validation():
    with pytest.raises(ValueError, match=">= 1"):
        EnsembleDriver("baroclinic_wave", _config(), members=0)
    with pytest.raises(ValueError, match="duplicate"):
        EnsembleDriver("baroclinic_wave", _config(), members=(1, 1))
    with pytest.raises(ValueError, match="not be empty"):
        EnsembleDriver("baroclinic_wave", _config(), members=())


def test_reference_check_and_drifts_per_member():
    with EnsembleDriver("baroclinic_wave", _config(), members=2,
                        seed=1) as driver:
        driver.step(1)
        checks = driver.reference_check()
        assert set(checks) == {0, 1}
        assert checks[0] == [] and checks[1] == []
        for m in (0, 1):
            assert abs(driver.mass_drift(m)) < 1e-9
            assert abs(driver.tracer_drift(m)) < 1e-5
