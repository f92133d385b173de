"""The halo layer's message contract: one message per (neighbor, phase,
exchange) carrying every field of the exchange, packed by the sender
into storage the mailbox owns and unpacked by the receiver from the
payload it took — so the halo layer keeps nothing between exchanges."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.dsl import backends
from repro.fv3.communicator import DictMailbox, LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.run import procrun, run
from repro.runtime import jit

H = 3
STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")

#: three acoustic sub-steps of two exchanges each plus the tracer
#: exchange: seven exchanges a step
CFG = DynamicalCoreConfig(
    npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=3,
    n_tracers=1,
)


def _fields(p, seed, nk=2):
    shape = (p.nx + 2 * H, p.ny + 2 * H, nk)
    return [
        np.random.default_rng(seed + r).random(shape)
        for r in range(p.total_ranks)
    ]


def _halo_layer_bytes(before, after):
    """Bytes allocated between two snapshots by a line of the halo layer
    and still alive at the second."""
    files = [tracemalloc.Filter(True, "*/fv3/halo.py"),
             tracemalloc.Filter(True, "*/fv3/communicator.py")]
    diff = after.filter_traces(files).compare_to(
        before.filter_traces(files), "lineno"
    )
    return sum(stat.size_diff for stat in diff if stat.size_diff > 0)


def test_steps_after_the_first_leave_nothing_allocated_in_the_halo_layer(
    monkeypatch,
):
    """Over steps 2–3 nothing a line of the halo layer allocates stays
    alive: payloads, requests and exchanges end with their exchange.
    (Compiled kernels, so that tracing every allocation stays cheap.)"""
    if not jit.available():
        pytest.skip("no JIT engine: the NumPy step is too slow to trace")
    monkeypatch.setattr(backends, "_default_backend", "compiled")
    core = DynamicalCore(CFG)
    core.step_dynamics()  # programs bound, lazy imports done
    tracemalloc.start()
    try:
        core.step_dynamics()
        gc.collect()  # frames the lockstep bodies left in cycles
        before = tracemalloc.take_snapshot()
        core.step_dynamics()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert _halo_layer_bytes(before, after) == 0
    assert core.halo.comm.pending() == []


@pytest.mark.traced
@pytest.mark.parametrize("layout", [1, 2])
def test_messages_per_exchange_follow_from_the_schedule(layout):
    """Whatever an exchange carries — one scalar, three, or both wind
    components — it posts one message per edge of ``comm_schedule()``,
    that is Σ neighbors × phases over the ranks."""
    p = CubedSpherePartitioner(12, layout)
    updater = HaloUpdater(p, n_halo=H)
    edges = len(updater.comm_schedule())
    tracer = obs.get_tracer()
    for carried in (1, 3):
        tracer.reset()
        fields = [_fields(p, 10 * k) for k in range(carried)]
        exchanges = [updater.start_scalars(fields, r)
                     for r in range(p.total_ranks)]
        for ex in exchanges:
            updater.advance(ex)
        for ex in exchanges:
            updater.finish_scalars(ex)
        posted = tracer.root.children["halo.exchange"].attrs["messages"]
        assert posted == edges
    tracer.reset()
    updater.update_vector(_fields(p, 1), _fields(p, 2))
    exchange = tracer.root.children["halo.update_vector"].children[
        "halo.exchange"]
    assert exchange.attrs["messages"] == edges


@pytest.mark.traced
def test_a_step_posts_one_message_per_neighbor_phase_and_exchange():
    core = DynamicalCore(CFG)
    core.step_dynamics()
    obs.get_tracer().reset()
    core.halo.comm.reset_log()
    core.step_dynamics()
    edges = len(core.halo.comm_schedule())
    exchanges = CFG.k_split * (2 * CFG.n_split + 1)
    assert edges * exchanges == 24 * 7 == 168
    assert len(core.halo.comm.message_sizes()) == 168

    def messages(node):
        return sum(
            (child.attrs.get("messages", 0) if name == "halo.exchange"
             else 0) + messages(child)
            for name, child in node.children.items()
        )

    assert messages(obs.get_tracer().root) == 168


def test_dict_mailbox_post_adopts_the_payload():
    """The array the receiver takes is the array the sender packed: the
    in-process store neither copies on post nor on take."""
    comm = LocalComm(2)
    packed = []

    def pack(out):
        out[...] = np.arange(6.0).reshape(out.shape)
        packed.append(out)

    comm.Ipack((2, 3), np.float64, pack, source=0, dest=1, tag=5)
    req = comm.Irecv(None, source=0, dest=1, tag=5)
    req.wait()
    assert req.payload is packed[0]
    np.testing.assert_array_equal(req.payload, np.arange(6.0).reshape(2, 3))
    req.release()
    assert req.payload is None and comm.pending() == []
    # the store on its own: reserve hands out the array post adopts
    box = DictMailbox()
    key = (0, 1, 9)
    slot, payload = box.reserve(key, (4,), np.float64)
    box.post(slot, payload, 0, False)
    assert box.take(box.find(key)) is payload
    assert box.pending_keys() == []


def test_shm_run_with_two_tracers_fits_its_widest_payload():
    """The tracer exchange carries δp and both tracers in one message: a
    slot sized for the widest plan × npz × three fields takes it, and
    the processes run matches the sequential one."""
    config = DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=1,
        n_tracers=2,
    )
    partitioner = CubedSpherePartitioner(config.npx, config.layout)
    widest = max(
        cells for *_, cells in HaloUpdater(partitioner).comm_schedule()
    )
    slot_bytes, _ = procrun._transport_sizing(partitioner, config)
    assert slot_bytes == widest * config.npz * 3 * 8
    seq = run("baroclinic_wave", config, steps=1, seed=3,
              executor="sequential")
    proc = run("baroclinic_wave", config, steps=1, seed=3,
               executor="processes", workers=2)
    for sa, sb in zip(seq.members[0].states, proc.members[0].states):
        for name in STATE_FIELDS:
            np.testing.assert_array_equal(getattr(sa, name),
                                          getattr(sb, name))
        for ta, tb in zip(sa.tracers, sb.tracers):
            np.testing.assert_array_equal(ta, tb)
