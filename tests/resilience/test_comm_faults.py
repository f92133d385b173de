"""Halo-updater fault semantics: a dropped message aborts and drains the
exchange, a delayed one is absorbed, teardown reports orphans. The
communicator-level half (drop/delay/corrupt on a bare ``Ipack``,
``drain``/``finalize``) lives in ``tests/fv3/test_communicator.py``,
where it runs over both mailbox stores."""

import numpy as np
import pytest

from repro import resilience
from repro.fv3.communicator import LocalComm
from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.resilience.errors import (
    HaloTimeoutError,
    OrphanedMessagesWarning,
)
from tests.fv3.halo_support import update_scalar


def _counters():
    return resilience.summary()["counters"]


# ---------------------------------------------------------------------------
# HaloUpdater integration
# ---------------------------------------------------------------------------

def _updater():
    part = CubedSpherePartitioner(12, 1)
    updater = HaloUpdater(part, n_halo=3)
    fields = [
        np.random.default_rng(r).random((18, 18, 2))
        for r in range(part.total_ranks)
    ]
    return updater, fields


def test_halo_timeout_names_phase_and_drains():
    updater, fields = _updater()
    chaos.set_plan(ChaosPlan.from_spec("halo.drop@1"))
    with pytest.raises(HaloTimeoutError) as excinfo:
        update_scalar(updater, fields)
    assert excinfo.value.phase == 0
    assert "phase 0" in str(excinfo.value)
    # aborted exchange left nothing in flight: the retry goes through
    assert updater.comm.mailbox.pending_keys() == []
    assert _counters()["halo_timeouts"] == 1
    chaos.clear_plan()
    update_scalar(updater, fields)


def test_halo_delay_is_absorbed():
    updater, fields = _updater()
    clean = [f.copy() for f in fields]
    update_scalar(
        HaloUpdater(updater.partitioner, n_halo=3, comm=LocalComm(6)), clean
    )
    chaos.set_plan(ChaosPlan.from_spec("halo.delay@5"))
    update_scalar(updater, fields)
    for a, b in zip(fields, clean):
        np.testing.assert_array_equal(a, b)
    assert _counters()["halo_redeliveries"] == 1


def test_halo_finalize_reports_orphans():
    updater, fields = _updater()
    updater.comm.Ipack((3,), np.float64, lambda out: out.fill(0.0),
                       source=0, dest=1, tag=77)
    with pytest.warns(OrphanedMessagesWarning):
        orphans = updater.finalize()
    assert orphans == [(0, 1, 77)]
