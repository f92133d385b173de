"""Fork-safety of process-global runtime state (PR 10 satellites).

A forked worker inherits the parent's buffer arena — workers holding
slabs the parent's threads may be inside, counters mid-flight, possibly
a held lock. The ``os.register_at_fork`` hook (plus the pid guard in
``get_pool``) must hand the child a pristine arena; a worker's
``snapshot_all()`` folds back into the parent whole, without double
counting.
"""

import multiprocessing
import os

import pytest

from repro import resilience
from repro.obs import counters
from repro.run import metrics  # noqa: F401 — registers "ensemble"
from repro.runtime import procs  # noqa: F401 — registers "procs"
from repro.runtime.pool import current, get_pool

fork_ctx = pytest.importorskip("multiprocessing").get_context

if "fork" not in multiprocessing.get_all_start_methods():
    pytest.skip("fork start method unavailable", allow_module_level=True)


def _take(nbytes):
    worker = current()
    worker.take(nbytes)
    worker.depth -= 1


def _child_pool_probe(conn):
    pool = get_pool()
    stats = pool.stats()
    worker = current()
    inherited = (list(worker.slabs), worker.depth)
    # the child allocates its own slab without touching the parent's
    _take(2048)
    _take(2048)
    conn.send((os.getpid(), stats, inherited, pool.stats()))
    conn.close()


def test_forked_child_gets_pristine_pool():
    pool = get_pool()
    _take(2048)
    before = pool.stats()
    assert before["checkouts"] >= 1 and current().slabs
    ctx = fork_ctx("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_child_pool_probe, args=(child_conn,))
    proc.start()
    child_conn.close()
    child_pid, child_stats, inherited, child_after = parent_conn.recv()
    proc.join(10)
    assert child_pid != os.getpid()
    # the at-fork hook zeroed every counter before the child's first use
    assert child_stats["checkouts"] == 0
    assert child_stats["allocated_bytes"] == 0
    assert child_stats["high_water_bytes"] == 0
    # and emptied the inherited workers
    assert inherited == ([], 0)
    # the child's arena works standalone (the second take reuses)
    assert child_after["checkouts"] == 2
    assert child_after["allocations"] == 1
    # the parent's accounting is untouched by the child's lifetime
    after = pool.stats()
    assert after["checkouts"] == before["checkouts"]
    assert after["allocated_bytes"] == before["allocated_bytes"]


def test_pool_pid_guard_resets_without_hook():
    """Even if the at-fork hook never ran (spawn-on-exotic-platform,
    embedded interpreters), the pid guard in ``get_pool`` resets a
    pool inherited from another process."""
    pool = get_pool()
    original_pid = pool._pid
    try:
        pool._pid = original_pid - 1  # masquerade as inherited
        fresh = get_pool()
        assert fresh is pool
        assert fresh._pid == os.getpid()
        assert fresh.stats()["checkouts"] == 0
    finally:
        pool._pid = os.getpid()


def _child_counts(conn):
    """What a rank worker does with its counters: zero every registered
    set, count, ship the whole registry."""
    counters.reset_all()
    for c in counters.REGISTRY.values():
        for i, name in enumerate(c.sums):
            c.add(name, i + 1)
        for name in c.peaks:
            c.peak(name, 10 ** 12)
        for name in c.labelled:
            c.add(name, 2, label="compiled")
    conn.send((os.getpid(), counters.snapshot_all()))
    conn.close()


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_a_workers_whole_registry_arrives(start):
    """Every registered set reaches the parent through ``merge_all`` —
    none is listed by hand anywhere — whether the worker inherited the
    parent's counts (fork) or imported the modules afresh (spawn)."""
    ctx = fork_ctx(start)
    sets = counters.REGISTRY
    before = counters.snapshot_all()
    resilience.record("retries", 7)  # a fork inherits it; it must not return
    try:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_child_counts, args=(child_conn,))
        proc.start()
        child_conn.close()
        child_pid, payload = parent_conn.recv()
        proc.join(30)
        assert not proc.is_alive() and child_pid != os.getpid()
        assert set(payload) == set(sets) >= {
            "pool", "compile_cache", "jit", "ranks", "procs", "ensemble",
            "resilience",
        }
        mine = counters.snapshot_all()
        counters.merge_all(payload)
        for group, c in sets.items():
            delta = c.since(mine[group])
            for i, name in enumerate(c.sums):
                assert delta[name] == payload[group][name] == i + 1, (
                    group, name)
            for name in c.peaks:
                assert delta[name] == 10 ** 12, (group, name)
            for name in c.labelled:
                assert delta[c.family]["compiled"][name] == 2, (group, name)
            for name in c.local:  # this process's, not the worker's
                assert delta[name] == mine[group][name], (group, name)
    finally:
        for group, c in sets.items():
            c.reset()
            c.merge(before[group])


def _checked_worker_main(*args):
    """A rank worker that refuses to start on a half-built batch: every
    kernel it inherited from the parent's table must have landed, and
    no background builder may be running — a thread a fork does not
    copy."""
    from repro.runtime import jit

    pending = [key for key, flight in jit._KERNELS.items()
               if not flight.done.is_set()]
    if pending or jit._BUILDER is not None:
        raise SystemExit(f"forked with {len(pending)} kernels in flight")
    _WORKER_MAIN(*args)


_WORKER_MAIN = procs._worker_main


def test_workers_are_forked_after_the_build_in_flight_lands(
    monkeypatch, tmp_path, tmp_path_factory
):
    """A ``processes`` run launched while the background builder is
    compiling — behind a compiler that takes two seconds — forks its
    workers (``fork`` is the default start method) only once that build
    has landed."""
    import ctypes

    from repro.fv3.config import DynamicalCoreConfig
    from repro.run import run
    from repro.runtime import jit

    real = jit._find_cc()
    if real is None:
        pytest.skip("no C compiler")
    slow = tmp_path_factory.mktemp("bin") / "slowcc"
    slow.write_text(
        "#!/bin/sh\n"
        'case "$*" in *repro_o_*) sleep 2;; esac\n'
        f'exec {real} "$@"\n'
    )
    slow.chmod(0o755)
    monkeypatch.setenv("REPRO_JIT", "cgen")
    monkeypatch.setenv("REPRO_CC", str(slow))
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    jit.reset(engine=True)
    monkeypatch.setattr(jit, "_KERNELS", {})
    monkeypatch.setattr(jit, "_OBJECTS", {})
    monkeypatch.setattr(procs, "_worker_main", _checked_worker_main)
    kernel = jit.KernelSource(
        "in_flight", f"void {jit.SYMBOL}(double *x) {{ x[0] += 1.0; }}",
        (ctypes.c_void_p,),
    )
    try:
        with jit.batch(background=True) as handed:
            jit.load_c([kernel], "")
        (flight,) = handed
        assert not flight.done.is_set()
        config = DynamicalCoreConfig(npx=12, npz=4, k_split=1, n_split=1)
        result = run("baroclinic_wave", config, steps=1,
                     executor="processes", workers=2)
        assert result.ok
        assert flight.done.is_set() and flight.error is None
    finally:
        monkeypatch.delenv("REPRO_JIT")
        jit.reset(engine=True)
