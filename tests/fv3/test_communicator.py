"""Communicator semantics, once, over both mailbox stores.

The protocol (``repro.fv3.communicator``) is written against a mailbox
store; every test here runs on the in-process ``DictMailbox`` and on the
shared-memory ``ShmTransport`` slot table: MPI-style (source, dest, tag)
matching, eager copy-out on send, flow control on occupied keys, absence
budgets, latency, the three ``halo.*`` chaos sites, drain scoping,
finalize and the message log. Cases that only a fixed-capacity table can
produce are marked ``shm_only``.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import resilience
from repro.fv3.communicator import DictMailbox, LocalComm
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.resilience.errors import HaloTimeoutError, OrphanedMessagesWarning
from repro.runtime.procs import ShmTransport


# autouse here too: no chaos plan, zeroed recovery counters per test
from tests.resilience.conftest import _clean_resilience_state  # noqa: E402,F401


@pytest.fixture(params=["dict", "shm"])
def mailbox(request):
    if request.param == "dict":
        yield DictMailbox()
        return
    table = ShmTransport.create(
        n_slots=4, slot_bytes=8192, ctx=multiprocessing.get_context()
    )
    yield table
    table.close()


#: the in-process store grows on demand and holds payloads of any size,
#: so "no free slot" and "payload larger than a slot" cannot occur on it
shm_only = pytest.mark.parametrize("mailbox", ["shm"], indirect=True)


def _endpoint(mailbox, **kwargs):
    comm = LocalComm(6, mailbox=mailbox, **kwargs)
    comm.max_polls = 4
    comm.poll_interval = 0.01
    return comm


@pytest.fixture()
def comm(mailbox):
    return _endpoint(mailbox)


def _counters():
    return resilience.summary()["counters"]


def _send(comm, buf, source, dest, tag=0):
    """Post a copy of ``buf`` (reusable the moment this returns)."""
    buf = np.asarray(buf)
    comm.Ipack(buf.shape, buf.dtype, lambda out: np.copyto(out, buf),
               source=source, dest=dest, tag=tag)


def _pending(comm):
    with comm.mailbox.cond:
        return comm.mailbox.pending_keys()


# ---------------------------------------------------------------------------
# matching and delivery
# ---------------------------------------------------------------------------

def test_roundtrip_preserves_shape_dtype_and_bits(comm):
    rng = np.random.default_rng(3)
    for payload in (
        np.arange(12.0),
        rng.random((5, 7)),
        rng.random((3, 4, 5)),
        rng.random((8,)).astype(np.float32),
        np.arange(12, dtype=np.int64).reshape(3, 4),
    ):
        _send(comm, payload, source=0, dest=1, tag=42)
        out = np.empty_like(payload)
        comm.Irecv(out, source=0, dest=1, tag=42).wait()
        np.testing.assert_array_equal(out, payload)
        assert out.dtype == payload.dtype


def test_send_is_an_eager_copy(comm):
    buf = np.ones((4, 4))
    _send(comm, buf, source=0, dest=1)
    buf[:] = -7.0  # mutate after post: receiver must see the snapshot
    out = np.empty_like(buf)
    comm.Irecv(out, source=0, dest=1).wait()
    np.testing.assert_array_equal(out, np.ones((4, 4)))


def test_tag_and_source_matching(comm):
    _send(comm, np.full((2, 2), 1.0), source=0, dest=1, tag=5)
    _send(comm, np.full((2, 2), 2.0), source=2, dest=1, tag=5)
    _send(comm, np.full((2, 2), 3.0), source=0, dest=1, tag=6)
    out = np.empty((2, 2))
    comm.Irecv(out, source=2, dest=1, tag=5).wait()
    assert out[0, 0] == 2.0
    comm.Irecv(out, source=0, dest=1, tag=6).wait()
    assert out[0, 0] == 3.0
    comm.Irecv(out, source=0, dest=1, tag=5).wait()
    assert out[0, 0] == 1.0


def test_absent_message_times_out_naming_ranks_tag_and_pending(comm):
    _send(comm, np.zeros(2), source=1, dest=0, tag=9)  # unrelated pending
    req = comm.Irecv(np.zeros(3), source=0, dest=1, tag=3)
    with pytest.raises(HaloTimeoutError) as excinfo:
        req.wait()
    assert isinstance(excinfo.value, RuntimeError)
    assert (1, 0, 9) in excinfo.value.pending
    message = str(excinfo.value)
    assert "rank 0" in message and "rank 1" in message
    assert "tag 3" in message
    assert "(src=1, dst=0, tag=9)" in message


def test_size_mismatched_receive_consumes_the_message_and_raises(comm):
    _send(comm, np.zeros((2, 2)), source=0, dest=1, tag=8)
    req = comm.Irecv(np.zeros(3), source=0, dest=1, tag=8)
    with pytest.raises(ValueError) as excinfo:
        req.wait()
    message = str(excinfo.value)
    assert "(0, 1, 8)" in message
    assert "(2, 2)" in message and "(3,)" in message
    # consumed, not leaked: the slot is free and the key can be reused
    assert _pending(comm) == []
    _send(comm, np.zeros(3), source=0, dest=1, tag=8)
    comm.Irecv(np.zeros(3), source=0, dest=1, tag=8).wait()


def test_latency_defers_delivery(comm):
    comm.latency = 0.08
    t0 = time.monotonic()
    _send(comm, np.ones(3), source=0, dest=1, tag=2)
    req = comm.Irecv(np.empty(3), source=0, dest=1, tag=2)
    req.wait()  # present at once, deliverable only after the latency
    assert time.monotonic() - t0 >= 0.08
    # the latency wait is not charged to the absence budget
    assert comm.timeout < 0.08


# ---------------------------------------------------------------------------
# flow control and capacity
# ---------------------------------------------------------------------------

def test_duplicate_key_send_blocks_until_receiver_drains(comm):
    comm.max_polls = 100  # budget must outlast the late receiver
    _send(comm, np.full(4, 1.0), source=0, dest=1, tag=7)
    received = []

    def late_receiver():
        time.sleep(0.05)
        out = np.empty(4)
        comm.Irecv(out, source=0, dest=1, tag=7).wait()
        received.append(out[0])

    thread = threading.Thread(target=late_receiver)
    thread.start()
    # blocks until the receiver drains the first message, then lands
    _send(comm, np.full(4, 2.0), source=0, dest=1, tag=7)
    thread.join()
    assert received == [1.0]
    out = np.empty(4)
    comm.Irecv(out, source=0, dest=1, tag=7).wait()
    assert out[0] == 2.0


def test_duplicate_key_send_raises_after_budget(comm):
    _send(comm, np.zeros(2), source=0, dest=1, tag=3)
    with pytest.raises(RuntimeError, match="already in flight"):
        _send(comm, np.zeros(2), source=0, dest=1, tag=3)


@shm_only
def test_mailbox_full_raises_after_budget(comm, mailbox):
    for tag in range(mailbox.n_slots):
        _send(comm, np.zeros(2), source=0, dest=1, tag=tag)
    with pytest.raises(RuntimeError, match="mailbox full"):
        _send(comm, np.zeros(2), source=0, dest=1, tag=999)


@shm_only
def test_oversized_payload_is_a_clear_error(comm):
    with pytest.raises(ValueError, match="slot capacity") as excinfo:
        _send(comm, np.zeros(10_000), source=0, dest=1, tag=0)
    # the hint names where slots are really sized, not a made-up knob
    assert "_transport_sizing" in str(excinfo.value)
    assert "REPRO_SHM_SLOT_BYTES" not in str(excinfo.value)
    assert _pending(comm) == []


# ---------------------------------------------------------------------------
# chaos sites
# ---------------------------------------------------------------------------

def test_dropped_message_times_out_with_rich_error(comm):
    chaos.set_plan(ChaosPlan.from_spec("halo.drop@1"))
    _send(comm, np.ones(3), source=2, dest=0, tag=5)  # dropped
    req = comm.Irecv(np.zeros(3), source=2, dest=0, tag=5)
    with pytest.raises(HaloTimeoutError) as excinfo:
        req.wait()
    err = excinfo.value
    assert (err.source, err.dest, err.tag) == (2, 0, 5)
    assert err.polls == comm.max_polls
    assert "rank 2" in str(err) and "tag 5" in str(err)
    # the fault was recorded for replay
    assert chaos.get_plan().counts() == {"halo.drop": 1}


def test_delayed_message_is_redelivered(comm):
    chaos.set_plan(ChaosPlan.from_spec("halo.delay@1"))
    payload = np.arange(4.0)
    _send(comm, payload, source=0, dest=1, tag=2)
    req = comm.Irecv(np.zeros(4), source=0, dest=1, tag=2)
    t0 = time.monotonic()
    req.wait()  # withheld, then delivered
    assert time.monotonic() - t0 >= (
        chaos.DEFAULT_DELAY_POLLS * comm.poll_interval
    )
    np.testing.assert_array_equal(req._buf, payload)
    assert _counters()["halo_redeliveries"] == 1


def test_corrupted_message_carries_nan(comm):
    chaos.set_plan(ChaosPlan.from_spec("seed=3;halo.corrupt@1"))
    sent = np.ones(8)
    _send(comm, sent, source=0, dest=1)
    buf = np.zeros(8)
    comm.Irecv(buf, source=0, dest=1).wait()
    assert np.isnan(buf).sum() == 1
    (fault,) = chaos.get_plan().injected
    assert fault.detail["index"] == int(np.flatnonzero(np.isnan(buf))[0])
    assert not np.isnan(sent).any()  # in transit, not in the sender


# ---------------------------------------------------------------------------
# lifecycle and accounting
# ---------------------------------------------------------------------------

def test_drain_clears_in_flight_state(comm):
    _send(comm, np.zeros(2), source=0, dest=1, tag=1)
    assert comm.drain() == [(0, 1, 1)]
    assert _pending(comm) == []
    # the same key can be reposted after a drain
    _send(comm, np.zeros(2), source=0, dest=1, tag=1)


def test_drain_is_scoped_to_owned_ranks(mailbox):
    """Two endpoints of one store, as two rank worker processes have."""
    comm_all = _endpoint(mailbox)
    _send(comm_all, np.zeros(2), source=0, dest=1, tag=0)
    _send(comm_all, np.zeros(2), source=0, dest=4, tag=0)
    mine = _endpoint(mailbox, owned_ranks=(0, 1, 2))
    orphans = mine.drain()
    assert orphans == [(0, 1, 0)]
    assert _pending(comm_all) == [(0, 4, 0)]


def test_finalize_reports_orphans(comm):
    _send(comm, np.zeros(2), source=0, dest=1, tag=1)
    _send(comm, np.zeros(2), source=1, dest=2, tag=4)
    with pytest.warns(OrphanedMessagesWarning, match=r"\(src=1, dst=2, tag=4\)"):
        orphans = comm.finalize()
    assert orphans == [(0, 1, 1), (1, 2, 4)]
    assert _counters()["orphaned_messages"] == 2
    assert _pending(comm) == []
    # clean communicator: silent, empty
    assert comm.finalize() == []


def test_finalize_strict_raises(comm):
    _send(comm, np.zeros(2), source=0, dest=1)
    with pytest.raises(RuntimeError, match="never received"):
        comm.finalize(strict=True)


def test_message_log_and_byte_accounting(comm):
    _send(comm, np.zeros(4), source=0, dest=1, tag=0)
    _send(comm, np.zeros(8), source=0, dest=2, tag=0)
    _send(comm, np.zeros(2), source=3, dest=0, tag=1)
    assert comm.bytes_by_rank() == {0: 96, 3: 16}
    assert sorted(comm.message_sizes()) == [16, 32, 64]
    assert comm.message_sizes(rank=3) == [16]
    comm.reset_log()
    assert comm.message_sizes() == []
