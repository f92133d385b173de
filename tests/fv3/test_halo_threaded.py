"""Concurrent halo exchange: the split per-rank API running on the
thread-pool executor must produce bit-identical halos to the sequential
global path, stay deadlock-free under shuffled/jittered post order, and
keep the full diagnostic payload on timeouts."""

import random
import time

import numpy as np
import pytest

from repro import resilience
from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.resilience.errors import HaloTimeoutError
from repro.runtime.ranks import RankExecutor
from tests.fv3.halo_support import update_scalar

H = 3


def _setup(layout=1, nk=2, seed=0):
    part = CubedSpherePartitioner(12, layout)
    updater = HaloUpdater(part, n_halo=H)
    shape = (part.nx + 2 * H, part.ny + 2 * H)
    if nk:
        shape += (nk,)
    fields = [
        np.random.default_rng(seed + r).random(shape)
        for r in range(part.total_ranks)
    ]
    return part, updater, fields


def _copies(fields):
    return [f.copy() for f in fields]


@pytest.fixture
def executor():
    ex = RankExecutor(6)
    try:
        yield ex
    finally:
        ex.shutdown()


def test_threaded_scalar_bit_identical(executor):
    part, updater, fields = _setup()
    seq = _copies(fields)
    update_scalar(HaloUpdater(part, n_halo=H), seq)

    executor.run(
        lambda r: updater.finish_scalar(
            updater.start_scalars([fields], r)),
        part.total_ranks,
    )
    for a, b in zip(fields, seq):
        np.testing.assert_array_equal(a, b)
    assert updater.comm.mailbox.pending_keys() == []


def test_threaded_vector_bit_identical(executor):
    part, updater, fields = _setup(seed=10)
    _, _, vfields = _setup(seed=20)
    us, vs = _copies(fields), _copies(vfields)
    HaloUpdater(part, n_halo=H).update_vector(us, vs)

    executor.run(
        lambda r: updater.finish_vector(
            updater.start_vector(fields, vfields, r)
        ),
        part.total_ranks,
    )
    for a, b in zip(fields, us):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(vfields, vs):
        np.testing.assert_array_equal(a, b)


def test_threaded_fused_multifield_matches_per_field_updates(executor):
    part, updater, f1 = _setup(seed=1)
    _, _, f2 = _setup(seed=2)
    _, _, f3 = _setup(seed=3)
    ref = [_copies(f) for f in (f1, f2, f3)]
    seq_updater = HaloUpdater(part, n_halo=H)
    for f in ref:
        update_scalar(seq_updater, f)

    executor.run(
        lambda r: updater.finish_scalars(
            updater.start_scalars((f1, f2, f3), r)
        ),
        part.total_ranks,
    )
    for got, want in zip((f1, f2, f3), ref):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_repeated_rounds_stay_identical_and_leak_free(executor):
    """Back-to-back threaded exchanges on the same fields must not
    collide on reused (source, dest, tag) keys across rounds."""
    part, updater, fields = _setup(seed=7)
    seq = _copies(fields)
    seq_updater = HaloUpdater(part, n_halo=H)
    rng = np.random.default_rng(42)
    for round_ in range(3):
        bump = rng.random(fields[0].shape)
        for f, s in zip(fields, seq):
            f += bump
            s += bump
        update_scalar(seq_updater, seq)
        executor.run(
            lambda r: updater.finish_scalar(
                updater.start_scalars([fields], r)
            ),
            part.total_ranks,
        )
        for a, b in zip(fields, seq):
            np.testing.assert_array_equal(a, b)
    assert updater.comm.mailbox.pending_keys() == []


def test_shuffled_post_order_is_deadlock_free(executor):
    """Rank bodies starting in arbitrary order with jittered delays must
    still complete (any stall would surface as HaloTimeoutError within
    the comm timeout, not hang)."""
    part, updater, fields = _setup(seed=5)
    seq = _copies(fields)
    # the exchange is not idempotent at cube corners (phase-1 packs read
    # pre-phase-1 neighbour halos), so the reference must be exchanged in
    # lockstep with the threaded fields, once per trial
    seq_updater = HaloUpdater(part, n_halo=H)

    for trial in range(3):
        update_scalar(seq_updater, seq)
        rng = random.Random(trial)
        order = list(range(part.total_ranks))
        rng.shuffle(order)
        delays = [rng.uniform(0.0, 0.01) for _ in order]

        def body(i):
            rank = order[i]
            time.sleep(delays[i])
            updater.finish_scalar(updater.start_scalars([fields], rank))

        executor.run(body, part.total_ranks)
        for a, b in zip(fields, seq):
            np.testing.assert_array_equal(a, b)


def test_small_worker_cap_cannot_deadlock():
    """workers < ranks must still complete: blocked waits hand their
    compute slot back, so all six ranks make progress on two slots."""
    part, updater, fields = _setup(seed=9)
    seq = _copies(fields)
    update_scalar(HaloUpdater(part, n_halo=H), seq)
    ex = RankExecutor(2)
    try:
        ex.run(
            lambda r: updater.finish_scalar(
                updater.start_scalars([fields], r)),
            part.total_ranks,
        )
    finally:
        ex.shutdown()
    for a, b in zip(fields, seq):
        np.testing.assert_array_equal(a, b)


def test_threaded_timeout_keeps_diagnostics(executor):
    """A dropped message under threads still raises HaloTimeoutError
    naming rank, tag, phase and the pending mailbox keys."""
    part, updater, fields = _setup(seed=11)
    previous = chaos.set_plan(ChaosPlan.from_spec("halo.drop@1"))
    try:
        with pytest.raises(HaloTimeoutError) as excinfo:
            executor.run(
                lambda r: updater.finish_scalar(
                    updater.start_scalars([fields], r)
                ),
                part.total_ranks,
            )
    finally:
        chaos.set_plan(previous)
        resilience.reset()
    err = excinfo.value
    assert 0 <= err.source < part.total_ranks
    assert 0 <= err.dest < part.total_ranks
    assert err.phase in (0, 1)
    assert isinstance(err.pending, list)
    text = str(err)
    assert f"rank {err.source}" in text
    assert f"tag {err.tag}" in text
    assert f"phase {err.phase}" in text
    # the aborted exchange is drained by the driver, not the rank thread
    updater.comm.drain()
    assert updater.comm.mailbox.pending_keys() == []
    # a clean retry goes through
    executor.run(
        lambda r: updater.finish_scalar(
            updater.start_scalars([fields], r)),
        part.total_ranks,
    )


def test_timeout_names_the_owning_tag_slot(executor):
    """A timeout inside a split exchange on offset tag slots carries the
    exchange's fslot_base, so the runtime error cross-references the
    static C3xx protocol findings (which identify exchanges by the same
    slot base)."""
    part, updater, fields = _setup(seed=13)
    previous = chaos.set_plan(ChaosPlan.from_spec("halo.drop@1"))
    try:
        with pytest.raises(HaloTimeoutError) as excinfo:
            executor.run(
                lambda r: updater.finish_scalars(
                    updater.start_scalars((fields,), r, fslot_base=2)
                ),
                part.total_ranks,
            )
    finally:
        chaos.set_plan(previous)
        resilience.reset()
    err = excinfo.value
    assert err.fslot_base == 2
    assert "fslot_base 2" in str(err)
    updater.comm.drain()
    assert updater.comm.mailbox.pending_keys() == []


def test_atomic_path_timeout_reports_slot_zero():
    part, updater, fields = _setup(seed=17)
    previous = chaos.set_plan(ChaosPlan.from_spec("halo.drop@1"))
    try:
        with pytest.raises(HaloTimeoutError) as excinfo:
            update_scalar(updater, fields)
    finally:
        chaos.set_plan(previous)
        resilience.reset()
    assert excinfo.value.fslot_base == 0
    assert "fslot_base 0" in str(excinfo.value)
    updater.comm.drain()
