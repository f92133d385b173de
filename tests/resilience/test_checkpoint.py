"""Checkpoint/restart: in-memory snapshot rollback and the versioned
on-disk format, including the save → perturb → restore round-trip
property."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    Snapshot,
    checkpoint_meta,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.errors import CheckpointError

CFG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=1,
    n_tracers=2,
)


@pytest.fixture(scope="module")
def core():
    return DynamicalCore(CFG)


def _state_vector(core):
    return [
        np.concatenate(
            [getattr(s, f).ravel() for f in ("u", "v", "w", "pt", "delp",
                                             "delz")]
            + [t.ravel() for t in s.tracers]
        )
        for s in core.states
    ]


def _perturb(core, rng):
    """Scribble over every prognostic array (NaNs included)."""
    for s in core.states:
        for f in ("u", "v", "w", "pt", "delp", "delz"):
            arr = getattr(s, f)
            arr[:] = rng.normal(size=arr.shape)
            arr.flat[rng.integers(arr.size)] = np.nan
        for t in s.tracers:
            t[:] = rng.random(t.shape)


# ---------------------------------------------------------------------------
# in-memory snapshots
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_snapshot_roundtrip_is_bit_identical(core, seed):
    """save → perturb → restore ⇒ bit-identical state, any perturbation."""
    reference = _state_vector(core)
    snapshot = Snapshot.capture(core.states, core.time, core.step_count)
    _perturb(core, np.random.default_rng(seed))
    snapshot.restore(core.states)
    for ref, got in zip(reference, _state_vector(core)):
        np.testing.assert_array_equal(ref, got)


def test_snapshot_is_isolated_from_later_mutation(core):
    snapshot = Snapshot.capture(core.states, core.time, core.step_count)
    before = snapshot.arrays[0]["pt"].copy()
    core.states[0].pt += 5.0
    np.testing.assert_array_equal(snapshot.arrays[0]["pt"], before)
    snapshot.restore(core.states)


def test_snapshot_rank_mismatch_rejected(core):
    snapshot = Snapshot.capture(core.states, 0.0, 0)
    with pytest.raises(CheckpointError, match="ranks"):
        snapshot.restore(core.states[:-1])


# ---------------------------------------------------------------------------
# on-disk checkpoints
# ---------------------------------------------------------------------------

def test_disk_roundtrip_bit_identical(tmp_path):
    core = DynamicalCore(CFG)
    core.step_dynamics()
    reference = _state_vector(core)
    path = core.save_checkpoint(tmp_path / "ckpt.npz")
    meta = checkpoint_meta(path)
    assert meta["version"] == CHECKPOINT_VERSION
    assert meta["step"] == 1 and meta["n_ranks"] == 6
    assert meta["npx"] == CFG.npx

    _perturb(core, np.random.default_rng(1))
    restored = load_checkpoint(path, core.states)
    assert restored["time"] == pytest.approx(CFG.dt_atmos)
    assert restored["step"] == 1
    for ref, got in zip(reference, _state_vector(core)):
        np.testing.assert_array_equal(ref, got)


def test_version_skew_rejected(tmp_path):
    core = DynamicalCore(CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, core.states, 0.0, 0)
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    meta = json.loads(bytes(payload["__meta__"]).decode())
    meta["version"] = CHECKPOINT_VERSION + 1
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()
    np.savez(path, **payload)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path, core.states)


def test_shape_mismatch_leaves_state_untouched(tmp_path):
    big = DynamicalCore(CFG)
    small = DynamicalCore(
        DynamicalCoreConfig(npx=8, npz=4, layout=1, n_tracers=2)
    )
    path = save_checkpoint(tmp_path / "big.npz", big.states, 0.0, 0)
    reference = _state_vector(small)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path, small.states)
    for ref, got in zip(reference, _state_vector(small)):
        np.testing.assert_array_equal(ref, got)


def test_tracer_count_mismatch_rejected(tmp_path):
    core = DynamicalCore(CFG)
    path = save_checkpoint(tmp_path / "c.npz", core.states, 0.0, 0)
    other = DynamicalCore(
        DynamicalCoreConfig(npx=12, npz=4, layout=1, n_tracers=1)
    )
    with pytest.raises(CheckpointError, match="tracers"):
        load_checkpoint(path, other.states)


def test_not_a_checkpoint_rejected(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(CheckpointError, match="no header"):
        checkpoint_meta(path)


def test_periodic_checkpointing(tmp_path):
    from repro.resilience import ResilienceConfig

    core = DynamicalCore(
        CFG,
        resilience=ResilienceConfig(
            checkpoint_every=2, checkpoint_dir=str(tmp_path)
        ),
    )
    for _ in range(4):
        core.step_dynamics()
    written = sorted(p.name for p in tmp_path.glob("*.npz"))
    assert written == ["ckpt_step000002.npz", "ckpt_step000004.npz"]


def test_checkpoint_every_requires_dir():
    from repro.resilience import ResilienceConfig

    with pytest.raises(ValueError, match="checkpoint_dir"):
        ResilienceConfig(checkpoint_every=5)
