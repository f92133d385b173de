"""SPMD dyncore stepping: the one rank body on rank threads must stay
bit-identical to the same body under the lockstep (sequential)
schedule, under any worker cap and under chaos-driven rollback — and
its overlap metrics must surface in the obs report."""

import time

import numpy as np
import pytest

from repro import resilience
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.obs import report
from repro.resilience import (
    GuardConfig,
    RecoverableFault,
    ResilienceConfig,
    chaos,
)
from repro.resilience.chaos import ChaosPlan
from repro.runtime import ranks

CFG = DynamicalCoreConfig(
    npx=12, npz=3, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
    n_tracers=1,
)

FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _run(workers, steps=2, res=None):
    ex = ranks.RankExecutor(workers)
    try:
        core = DynamicalCore(CFG, resilience=res, executor=ex)
        for _ in range(steps):
            core.step_dynamics()
    finally:
        ex.shutdown()
    return core


def _assert_bit_identical(a, b):
    for r, (sa, sb) in enumerate(zip(a.states, b.states)):
        for f in FIELDS:
            np.testing.assert_array_equal(
                getattr(sa, f), getattr(sb, f), err_msg=f"rank {r} {f}"
            )
        for t, (ta, tb) in enumerate(zip(sa.tracers, sb.tracers)):
            np.testing.assert_array_equal(
                ta, tb, err_msg=f"rank {r} tracer {t}"
            )


@pytest.fixture(scope="module")
def sequential_run():
    return _run(workers=1)


def test_threaded_step_bit_identical(sequential_run):
    threaded = _run(workers=6)
    _assert_bit_identical(threaded, sequential_run)
    assert threaded.halo.comm.mailbox.pending_keys() == []


def test_small_worker_cap_bit_identical(sequential_run):
    """Two compute slots for six ranks: blocked halo waits hand their
    slot back, so the run completes and matches exactly."""
    capped = _run(workers=2)
    _assert_bit_identical(capped, sequential_run)


def test_threaded_rollback_recovers_bit_identical():
    """A dropped halo message under threads trips the timeout, the
    driver drains and rolls back, and the retried step finishes
    bit-identical to a fault-free threaded run."""
    clean = _run(workers=6)
    plan = ChaosPlan.from_spec("seed=3;halo.drop@40")
    previous = chaos.set_plan(plan)
    try:
        faulty = _run(
            workers=6,
            res=ResilienceConfig(
                guard=GuardConfig(policy="rollback"), max_retries=4
            ),
        )
        counters = resilience.summary()["counters"]
        assert plan.counts() == {"halo.drop": 1}
        assert counters["halo_timeouts"] >= 1
        assert counters["rollbacks"] >= 1
    finally:
        chaos.set_plan(previous)
        resilience.reset()
    _assert_bit_identical(faulty, clean)
    assert faulty.halo.comm.mailbox.pending_keys() == []


@pytest.mark.parametrize("workers", [1, 6], ids=["sequential", "threads"])
def test_failed_section_leaves_no_messages_in_flight(workers):
    """A program that raises between a start_* and its finish_* (here:
    rank 0's sub-step program, before its callback finished the scalar
    exchange) strands its peers' messages; the remapping step drains
    them on the way out, so the next step on the same core reposts every
    send cleanly — without any ``resilience=`` harness."""
    ex = ranks.RankExecutor(workers)
    try:
        core = DynamicalCore(CFG, executor=ex)
        core.prepare()  # the stand-in below is no program to bind
        substeps = core.acoustics.substeps
        healthy = substeps[0]

        def fails_once(*args):
            substeps[0] = healthy
            raise RecoverableFault("injected: sub-step on rank 0")

        substeps[0] = fails_once
        with pytest.raises(RecoverableFault, match="injected"):
            core.step_dynamics()
        assert core.halo.comm.mailbox.pending_keys() == []
        core.step_dynamics()
        assert core.halo.comm.mailbox.pending_keys() == []
    finally:
        ex.shutdown()


def _per_rank_lists(core):
    ac = core.acoustics
    lists = {
        "grids": core.grids, "states": core.states, "remap": core.remap,
        "tracer_adv": core.tracer_adv, "delp_start": core._delp_start,
        "remapped": core._remapped_fields, "work": ac.work,
        "windows": ac.windows, "substeps": ac.substeps,
        "transports": ac.transports, "c_sw": ac.c_sw, "d_sw": ac.d_sw,
        "riemann": ac.riemann, "u": ac._u, "v": ac._v, "delp": ac._delp,
        "pt": ac._pt, "w": ac._w,
    }
    for index, fields in enumerate(core._tracer_fields):
        lists[f"tracer{index}"] = fields
    return lists


@pytest.mark.parametrize("block", [None, (0, 1, 2), (3, 4, 5), (4,)])
def test_core_holds_exactly_the_ranks_its_communicator_owns(block):
    """Grids, states, workspaces, modules and the per-field rank lists
    exist for the communicator's ranks and for no other; a core on the
    default communicator holds every rank, as it always did."""
    from repro.fv3.communicator import LocalComm

    comm = None if block is None else LocalComm(6, owned_ranks=block)
    core = DynamicalCore(CFG, comm=comm)
    assert core.acoustics is None  # a core never stepped builds none of it
    core.prepare()
    held = tuple(range(6)) if block is None else block
    assert core.ranks == core.acoustics.ranks == held
    for name, per_rank in _per_rank_lists(core).items():
        assert len(per_rank) == 6, name
        present = tuple(r for r in range(6) if per_rank[r] is not None)
        assert present == held, name


def test_two_block_cores_over_one_mailbox_match_the_full_core(
    sequential_run,
):
    """Two owned-rank cores, each stepping its block in lockstep on one
    thread, reach each other only through the shared mailbox — what two
    rank worker processes do — and reproduce the full core's ranks."""
    import threading

    from repro.fv3.communicator import DictMailbox, LocalComm

    mailbox = DictMailbox()
    cores = []
    for block in ((0, 1, 2), (3, 4, 5)):
        comm = LocalComm(6, mailbox=mailbox, owned_ranks=block)
        comm.max_polls = 400  # a peer may still be binding its programs
        cores.append(DynamicalCore(
            CFG, executor=ranks.RankExecutor(1), comm=comm
        ))
    errors = []

    def drive(core):
        try:
            for _ in range(2):
                core.step_dynamics()
        except BaseException as exc:  # noqa: BLE001 — asserted below
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(c,)) for c in cores]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    assert mailbox.pending_keys() == []
    for core in cores:
        for r in core.ranks:
            sa, sb = sequential_run.states[r], core.states[r]
            for f in FIELDS:
                np.testing.assert_array_equal(
                    getattr(sa, f), getattr(sb, f), err_msg=f"rank {r} {f}"
                )
            np.testing.assert_array_equal(sa.tracers[0], sb.tracers[0])


def test_sequential_step_hides_latency_behind_ten_windows():
    """Under a simulated per-message latency L the lockstep schedule
    pays one L per exposed window — two per acoustic sub-step (the wind
    phases; the scalars ride inside them) plus two for the fused tracer
    exchange, 10 on this config — where a schedule that completes each
    field's each phase before posting the next pays 44 (per sub-step
    2 fields x 2 phases + 3 x 2, plus 2 x 2 for the tracers)."""
    from repro.run import build_core

    latency = 0.05
    cfg = DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=4,
        n_tracers=1,
    )

    def step_seconds(comm_latency):
        core = build_core(
            "baroclinic_wave", cfg, executor="sequential",
            comm_latency=comm_latency, max_polls=40,
        )
        try:
            core.step_dynamics()  # programs bound, buffers allocated
            t0 = time.perf_counter()
            core.step_dynamics()
            return time.perf_counter() - t0
        finally:
            core.finalize()
            core.executor.shutdown()

    added = step_seconds(latency) - step_seconds(0.0)
    assert added > 5 * latency  # the latency is really simulated ...
    assert added < 0.5 * 44 * latency  # ... and paid per window only


@pytest.mark.traced
def test_parallel_metrics_surface_in_report():
    ranks.reset_metrics()
    _run(workers=6, steps=1)
    summary = ranks.summary()
    assert summary["workers"] >= 6
    assert summary["sections"] > 0
    assert summary["tasks"] >= 6 * summary["sections"]
    assert summary["exchanges"] > 0
    assert summary["hidden_seconds"] >= 0.0
    eff = summary["overlap_efficiency"]
    assert eff is None or 0.0 <= eff <= 1.0
    (line,) = [ln for ln in report().splitlines()
               if ln.startswith("ranks: ")]
    assert f"sections {summary['sections']}," in line
    assert f"exchanges {summary['exchanges']}," in line
    assert "overlap_efficiency" in line


def test_sequential_and_threads_count_the_same_sections():
    """Lockstep runs every section rank threads run: the ``ranks:``
    counters of the same 2-step c12 run agree under both schedules, and
    ``workers`` is the executor's width."""
    counted = {}
    for workers in (1, 2):
        ranks.reset_metrics()
        _run(workers=workers, steps=2)
        counted[workers] = ranks.summary()
    assert counted[1]["sections"] > 0
    assert counted[1]["tasks"] >= 6 * counted[1]["sections"]
    for key in ("sections", "tasks"):
        assert counted[1][key] == counted[2][key], key
    assert (counted[1]["workers"], counted[2]["workers"]) == (1, 2)
    assert counted[1]["section_seconds"] > 0


def _kernel_counts(span, program=None, into=None):
    """``{program span: {kernel span: calls}}`` over ``span``'s tree."""
    into = {} if into is None else into
    for name, child in span.children.items():
        if name.startswith("kernel."):
            counts = into.setdefault(program, {})
            counts[name] = counts.get(name, 0) + child.count
        _kernel_counts(
            child, name if name.startswith("program.") else program, into
        )
    return into


@pytest.mark.traced
def test_traced_kernel_counts_are_the_same_under_threads():
    """A plan times the kernels of each call into a buffer of that call:
    six rank threads calling one shared plan credit each ``program.*``
    span with exactly the kernel calls the sequential schedule does."""
    from repro.obs import get_tracer
    from repro.run import build_core

    cfg = DynamicalCoreConfig(npx=12, npz=4)
    tracer = get_tracer()
    counts = {}
    for name, workers in (("sequential", 1), ("threads", 6)):
        ex = ranks.RankExecutor(workers)
        try:
            core = build_core("baroclinic_wave", cfg, executor=ex)
            core.step_dynamics()  # warm-up: trace, bind, build
            tracer.reset()
            core.step_dynamics()
        finally:
            ex.shutdown()
        counts[name] = _kernel_counts(tracer.root)
    substeps = counts["sequential"]["program.AcousticSubstep"]
    assert substeps and min(substeps.values()) >= 6 * 8
    assert counts["threads"] == counts["sequential"]
