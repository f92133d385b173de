"""The process-based rank executor (PR 10): bit-identity with the
sequential and threaded executors on the full 6-tile cube, the
resilience guard, the merged observability fan-in — and what a rank
worker costs: one thread, its own ranks' arena, its own block's frames,
and a clean teardown whichever side fails."""

import dataclasses
import multiprocessing
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import obs
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.run import metrics, procrun, run
from repro.runtime import procs, runtime_summary
from repro.runtime.pool import get_pool
from repro.runtime.procs import ProcessRankExecutor
from repro.scenarios import get_scenario, register_scenario
from repro.scenarios import base as _scenarios

STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _config(**overrides):
    base = dict(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
        n_tracers=1,
    )
    base.update(overrides)
    return DynamicalCoreConfig(**base)


def _assert_bit_identical(a, b):
    assert [m.member for m in a.members] == [m.member for m in b.members]
    for ma, mb in zip(a.members, b.members):
        assert ma.summary == mb.summary
        assert ma.mass_drift == mb.mass_drift
        assert ma.tracer_drift == mb.tracer_drift
        assert ma.history == mb.history
        for sa, sb in zip(ma.states, mb.states):
            for name in STATE_FIELDS:
                np.testing.assert_array_equal(
                    getattr(sa, name), getattr(sb, name), err_msg=name
                )
            for ta, tb in zip(sa.tracers, sb.tracers):
                np.testing.assert_array_equal(ta, tb)


@pytest.fixture(scope="module")
def sequential_run():
    return run("baroclinic_wave", _config(), steps=2, members=2, seed=4,
               executor="sequential")


def test_threads_match_sequential(sequential_run):
    threaded = run("baroclinic_wave", _config(), steps=2, members=2,
                   seed=4, executor="threads")
    _assert_bit_identical(sequential_run, threaded)


@pytest.mark.parametrize("workers", [1, 2, 3, 6])
def test_processes_bit_identical_to_sequential(sequential_run, workers):
    """1, 2, 3 and 6 worker processes over the 6-rank cube all reproduce
    the sequential ensemble bit for bit — states, summaries, drifts and
    per-step history entries — each on a single thread."""
    procs.reset_metrics()
    copies = _copies()
    proc = run("baroclinic_wave", _config(), steps=2, members=2, seed=4,
               executor="processes", workers=workers)
    _assert_bit_identical(sequential_run, proc)
    assert f"workers={workers}" in proc.executor
    assert "ranks=6" in proc.executor
    # threading.active_count() after each step, the most any worker saw
    assert runtime_summary()["procs"]["worker_threads"] == 1
    # member 0 owns each engine it is built from; member 1 swaps in: in
    # the parent once to build and once for the result (member 1 is
    # still resident), in each worker once for its baselines and once a
    # step, each sweep starting with the member left resident (folded
    # from the workers)
    assert copies() == (2 + 3 * workers,) * 2


def _copies():
    start = metrics.summary()
    return lambda: tuple(
        metrics.summary()[name] - start[name]
        for name in ("state_copies_in", "state_copies_out")
    )


def test_a_one_member_run_copies_no_state():
    """The parent's engine and each worker's are built from the member's
    own initial state (a worker's replays the perturbation stream past
    the ranks below its block), so nobody copies a state."""
    copies = _copies()
    proc = run("baroclinic_wave", _config(), steps=2, members=(1,), seed=4,
               executor="processes", workers=2)
    assert copies() == (0, 0)
    _assert_bit_identical(
        run("baroclinic_wave", _config(), steps=2, members=(1,), seed=4,
            executor="sequential"),
        proc,
    )


@pytest.fixture(scope="module")
def perturbed_sequential():
    """Members 1 and 2 (both perturbed: each draws from one stream
    across the ranks, so a worker must replay the ranks below its
    block), 4 steps, per layout."""
    return {
        layout: run("baroclinic_wave", _config(layout=layout, n_split=1),
                    steps=4, members=(1, 2), seed=9, executor="sequential")
        for layout in (1, 2)
    }


#: tier-1 runs every value of each axis once; the other twelve
#: combinations run under ``--deep`` (the ``proc-scaling-smoke`` CI job)
_SAMPLE = {(1, "fork", 1), (2, "spawn", 2), (3, "fork", 2), (6, "spawn", 1)}


@pytest.mark.parametrize("workers, start, layout", [
    pytest.param(
        workers, start, layout, id=f"{workers}-{start}-{layout}x{layout}",
        marks=() if (workers, start, layout) in _SAMPLE else pytest.mark.deep,
    )
    for layout in (1, 2) for start in ("fork", "spawn")
    for workers in (1, 2, 3, 6)
])
def test_perturbed_members_bit_identical(perturbed_sequential, workers,
                                         start, layout):
    """Lockstep workers over 4 steps x 2 members reuse every message
    key many times across steps and members with nothing but
    occupied-key blocking between them."""
    pex = ProcessRankExecutor(workers=workers, start_method=start)
    proc = run("baroclinic_wave", _config(layout=layout, n_split=1),
               steps=4, members=(1, 2), seed=9, executor=pex)
    _assert_bit_identical(perturbed_sequential[layout], proc)
    assert pex.transport is None and not multiprocessing.active_children()


def test_transport_squeezed_to_one_slot_per_key(perturbed_sequential,
                                                monkeypatch):
    """One slot per (plan, exchange) key of the two exchanges in flight
    at once, each just wide enough for the widest packed payload, is all
    the lockstep workers can ever occupy: the sizing's doubling of the
    slot count is headroom, not a requirement."""
    config = _config(layout=2, n_split=1)
    schedule = HaloUpdater(
        CubedSpherePartitioner(config.npx, config.layout)
    ).comm_schedule()
    squeezed = (
        max(cells for *_, cells in schedule) * config.npz * 3 * 8,
        len(schedule) * 2,
    )
    default = procrun._transport_sizing(
        CubedSpherePartitioner(config.npx, config.layout), config
    )
    assert squeezed[0] <= default[0] and squeezed[1] < default[1]
    monkeypatch.setattr(procrun, "_transport_sizing",
                        lambda partitioner, config: squeezed)
    proc = run("baroclinic_wave", config, steps=4, members=(1, 2), seed=9,
               executor="processes", workers=3)
    _assert_bit_identical(perturbed_sequential[2], proc)


def _sequential_arena(conn, config):
    run("baroclinic_wave", config, steps=2, members=2, seed=4,
        executor="sequential")
    conn.send(get_pool().stats()["high_water_bytes"])


def test_worker_arena_is_the_sequential_engines():
    """A worker's ranks take turns on one thread, so its arena peaks
    where the sequential engine's does — not at that times the ranks it
    runs. The sequential figure comes from a forked child, whose arena
    starts empty like a worker's."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_sequential_arena, args=(theirs, _config()))
    child.start()
    assert ours.poll(120.0)
    sequential = ours.recv()
    child.join(timeout=30.0)
    assert child.exitcode == 0 and sequential > 0
    procs.reset_metrics()
    run("baroclinic_wave", _config(), steps=2, members=2, seed=4,
        executor="processes", workers=2)
    arena_mb = runtime_summary()["procs"]["worker_arena_high_water_mb"]
    assert arena_mb * 2 ** 20 == sequential


# ---------------------------------------------------------------------------
# collection: raw frames
# ---------------------------------------------------------------------------
_SPECIALS = np.array(
    [np.nan, -np.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
     np.inf, -np.inf, 1.0],
)


@pytest.fixture()
def scenario_registry():
    """Scenarios registered by a test are dropped again (forked workers
    resolve them by name in the registry they inherit)."""
    before = dict(_scenarios._REGISTRY)
    try:
        yield
    finally:
        _scenarios._REGISTRY.clear()
        _scenarios._REGISTRY.update(before)


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _forked(workers):
    """Forked workers inherit what a test registered or patched."""
    return ProcessRankExecutor(workers=workers, start_method="fork")


def test_collect_frames_round_trip_special_values(scenario_registry):
    """The collect frames are the arrays' bytes: NaN payloads, signed
    zeros, subnormals and infinities arrive bit for bit. The workers
    plant them in ``w`` (which no baseline reads); the parent builds
    plain zeros there and must end up holding the workers' bits."""
    base = get_scenario("baroclinic_wave")

    def builder(grid, config):
        state = base.builder(grid, config)
        if _in_worker():
            state.w[...] = 0.0
            state.w.reshape(-1)[:_SPECIALS.size] = _SPECIALS
        return state

    register_scenario(dataclasses.replace(
        base, name="test_special_values", builder=builder, checks=(),
    ))
    result = run("test_special_values", _config(), steps=0, members=2,
                 executor=_forked(2), check=False)
    for member in result.members:
        for state in member.states:
            got = state.w.reshape(-1)
            np.testing.assert_array_equal(
                got[:_SPECIALS.size].view(np.uint64),
                _SPECIALS.view(np.uint64),
            )
            assert not got[_SPECIALS.size:].any()


@pytest.mark.parametrize("env, expected", [(None, 4), ("3", 3)])
def test_workers_share_the_kernel_threads(scenario_registry, monkeypatch,
                                          env, expected):
    """Unless ``REPRO_THREADS`` fixes it, each of W workers starts 1/W of
    the kernel threads one process would (8 cores here, 2 workers). The
    workers write the width they resolved into ``w``."""
    from repro.runtime import jit

    base = get_scenario("baroclinic_wave")

    def builder(grid, config):
        state = base.builder(grid, config)
        state.w[...] = jit.default_threads() if _in_worker() else 0.0
        return state

    register_scenario(dataclasses.replace(
        base, name="test_thread_share", builder=builder, checks=(),
    ))
    monkeypatch.setattr("os.cpu_count", lambda: 8)  # forked workers too
    if env is None:
        monkeypatch.delenv("REPRO_THREADS", raising=False)
    else:
        monkeypatch.setenv("REPRO_THREADS", env)
    result = run("test_thread_share", _config(), steps=0,
                 executor=_forked(2), check=False)
    for state in result.members[0].states:
        assert (state.w == expected).all()


# ---------------------------------------------------------------------------
# failure paths of launch-then-build
# ---------------------------------------------------------------------------
def _failing_scenario(name, fails, seen):
    """A baroclinic wave whose builder raises where ``fails()`` says so;
    in the parent it first notes the live transport's segment name."""
    base = get_scenario("baroclinic_wave")

    def builder(grid, config):
        if not _in_worker():
            seen["segment"] = seen["pex"].transport.name
        if fails():
            raise FloatingPointError(f"{name}: builder refused")
        return base.builder(grid, config)

    return register_scenario(dataclasses.replace(
        base, name=name, builder=builder, checks=(),
    ))


def _assert_torn_down(seen):
    assert seen["pex"].transport is None
    for child in multiprocessing.active_children():
        child.join(timeout=30.0)
    assert not multiprocessing.active_children()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=seen["segment"])


def test_parent_build_failure_after_launch_tears_the_fleet_down(
    scenario_registry,
):
    seen = {"pex": _forked(2)}
    _failing_scenario("test_parent_fails", lambda: not _in_worker(), seen)
    with pytest.raises(FloatingPointError, match="builder refused"):
        run("test_parent_fails", _config(), steps=1, executor=seen["pex"])
    _assert_torn_down(seen)


def test_worker_build_failure_surfaces_typed_and_tears_down(
    scenario_registry,
):
    """One worker fails while the parent is still building: the parent
    finishes its build, then reports that worker by index and ranks."""
    seen = {"pex": _forked(2)}
    _failing_scenario(
        "test_worker_fails",
        lambda: multiprocessing.current_process().name
        == "repro-rank-worker-1",
        seen,
    )
    with pytest.raises(RuntimeError) as excinfo:
        run("test_worker_fails", _config(), steps=1, executor=seen["pex"])
    message = str(excinfo.value)
    assert "rank worker 1 (ranks (3, 4, 5)) failed with " \
        "FloatingPointError: test_worker_fails: builder refused" in message
    _assert_torn_down(seen)


def test_spawn_start_method_matches(sequential_run):
    """The spawn start method (no inherited interpreter state) rebuilds
    the same replicas and produces the same bits."""
    pex = ProcessRankExecutor(workers=2, start_method="spawn")
    proc = run("baroclinic_wave", _config(), steps=2, members=2, seed=4,
               executor=pex)
    _assert_bit_identical(sequential_run, proc)
    assert "start=spawn" in proc.executor


def test_resilience_rejected_under_processes():
    from repro.resilience import ResilienceConfig

    with pytest.raises(ValueError, match="resilience"):
        run("baroclinic_wave", _config(), steps=1,
            executor="processes", resilience=ResilienceConfig())


def test_engine_level_processes_name_rejected():
    from repro.run import EnsembleDriver

    with pytest.raises(ValueError, match="processes"):
        EnsembleDriver("baroclinic_wave", _config(),
                       executor="processes")


def test_worker_observability_merged_into_parent():
    """Runtime summary and the obs report footer account for the worker
    processes after a run."""
    before = runtime_summary().get("procs", {}).get(
        "worker_reports_merged", 0
    )
    released = get_pool().stats()["released_bytes"]
    tracer = obs.get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = True
    tracer.reset()
    try:
        run("baroclinic_wave", _config(), steps=1, members=1, seed=1,
            executor="processes", workers=2)
        rt = runtime_summary()
        assert "procs" in rt
        assert rt["procs"]["worker_reports_merged"] >= before + 2
        assert rt["procs"]["messages"] > 0
        assert rt["procs"]["bytes"] > 0
        # the parent steps nothing: what it counts its workers gave back
        assert rt["pool"]["released_bytes"] > released
        report = obs.report()
    finally:
        tracer.enabled = was_enabled
        tracer.reset()
    (line,) = [ln for ln in report.splitlines() if ln.startswith("procs: ")]
    assert f"worker_reports_merged {rt['procs']['worker_reports_merged']}," \
        in line
    assert f"messages {rt['procs']['messages']}," in line


def test_worker_spans_folded_when_tracing():
    """With tracing enabled, worker span trees (rank bodies run in the
    worker processes) surface in the parent tracer."""
    tracer = obs.get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = True
    tracer.reset()
    try:
        run("baroclinic_wave", _config(), steps=1, members=1, seed=1,
            executor="processes", workers=2)
        names = set()

        def walk(span):
            names.add(span.name)
            for child in span.children.values():
                walk(child)

        walk(tracer.root)
        assert "ensemble.launch_workers" in names
        # launch, then build: the workers are started before the parent
        # builds its own engine
        opened = list(tracer.root.children)
        assert opened.index("ensemble.launch_workers") \
            < opened.index("ensemble.build_engine")
        # spans recorded inside the workers (dyncore stepping) arrived
        assert any(name.startswith("step[") or name == "ensemble.step"
                   or name.startswith("acoustic") or "halo" in name
                   for name in names), sorted(names)
    finally:
        tracer.enabled = was_enabled
        tracer.reset()


def test_comm_latency_rides_through():
    """Simulated latency reaches the shared-memory transport (the run
    still completes and stays bit-identical)."""
    seq = run("baroclinic_wave", _config(n_split=1), steps=1, members=1,
              seed=2, executor="sequential")
    proc = run("baroclinic_wave", _config(n_split=1), steps=1, members=1,
               seed=2, executor="processes", workers=2,
               comm_latency=0.001)
    _assert_bit_identical(seq, proc)


def test_worker_recovery_counters_reach_the_parent(monkeypatch):
    """What a rank worker records in ``repro.resilience`` is folded into
    the parent like every other registered counter set (occurrences are
    numbered per process; only the counting is whole)."""
    from repro import resilience
    from repro.resilience import ChaosPlan, chaos

    spec = "seed=1;halo.delay@5,9,40"
    monkeypatch.setenv("REPRO_CHAOS", spec)  # a spawned worker reads it
    previous = chaos.set_plan(ChaosPlan.from_spec(spec))
    shipped = []
    fold = procs.fold_worker_reports

    def capture(payloads):
        shipped.extend(
            p["counters"]["resilience"]["halo_redeliveries"]
            for p in payloads
        )
        fold(payloads)

    monkeypatch.setattr(procs, "fold_worker_reports", capture)
    before = resilience.summary()["counters"]["halo_redeliveries"]
    try:
        run("baroclinic_wave", _config(), steps=1, executor="processes",
            workers=2)
    finally:
        chaos.set_plan(previous)
    after = resilience.summary()["counters"]["halo_redeliveries"]
    assert len(shipped) == 2
    assert after - before == sum(shipped) > 0
