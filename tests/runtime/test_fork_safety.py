"""Fork-safety of process-global runtime state (PR 10 satellites).

A forked worker inherits the parent's buffer pool — free lists full of
arrays the parent still owns, counters mid-flight, possibly a held
lock. The ``os.register_at_fork`` hook (plus the pid guard in
``get_pool``) must hand the child a pristine pool; ``merge_stats`` /
``merge_summary`` / jit ``merge_stats`` fold worker counters back into
the parent without double counting.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.runtime import jit, ranks
from repro.runtime.pool import get_pool

fork_ctx = pytest.importorskip("multiprocessing").get_context

if "fork" not in multiprocessing.get_all_start_methods():
    pytest.skip("fork start method unavailable", allow_module_level=True)


def _child_pool_probe(conn):
    pool = get_pool()
    stats = pool.stats()
    # the child may allocate its own buffers without disturbing the
    # parent's free lists
    buf = pool.checkout((16, 16), np.float64)
    pool.release(buf)
    buf2 = pool.checkout((16, 16), np.float64)
    pool.release(buf2)
    conn.send((os.getpid(), stats, pool.stats()))
    conn.close()


def test_forked_child_gets_pristine_pool():
    pool = get_pool()
    parent_buf = pool.checkout((16, 16), np.float64)
    pool.release(parent_buf)
    before = pool.stats()
    assert before["checkouts"] >= 1
    ctx = fork_ctx("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_child_pool_probe, args=(child_conn,))
    proc.start()
    child_conn.close()
    child_pid, child_stats, child_after = parent_conn.recv()
    proc.join(10)
    assert child_pid != os.getpid()
    # the at-fork hook zeroed every counter before the child's first use
    assert child_stats["checkouts"] == 0
    assert child_stats["allocated_bytes"] == 0
    assert child_stats["high_water_bytes"] == 0
    # and the child's pool works standalone (second checkout reuses)
    assert child_after["checkouts"] == 2
    assert child_after["reuse_hits"] >= 1
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


def test_pool_merge_stats_folds_worker_counters():
    pool = get_pool()
    before = pool.stats()
    pool.merge_stats({
        "checkouts": 5, "reuse_hits": 3, "allocations": 2,
        "allocated_bytes": 1024, "alloc_bytes_avoided": 2048,
        "scope_reclaims": 1, "high_water_bytes": 10 ** 9,
    })
    after = pool.stats()
    assert after["checkouts"] == before["checkouts"] + 5
    assert after["reuse_hits"] == before["reuse_hits"] + 3
    assert after["allocated_bytes"] == before["allocated_bytes"] + 1024
    assert after["high_water_bytes"] == max(
        before["high_water_bytes"], 10 ** 9
    )


def test_ranks_merge_summary_adds_counters_and_maxes_workers():
    ranks.reset_metrics()
    try:
        ranks.merge_summary({
            "workers": 6, "sections": 4, "tasks": 24,
            "section_seconds": 1.5, "exchanges": 8,
            "hidden_seconds": 0.25, "exposed_seconds": 0.75,
        })
        ranks.merge_summary({"workers": 2, "sections": 1, "tasks": 2})
        out = ranks.summary()
        assert out["workers"] == 6
        assert out["sections"] == 5
        assert out["tasks"] == 26
        assert out["exchanges"] == 8
        assert out["overlap_efficiency"] == 0.25
    finally:
        ranks.reset_metrics()


def test_jit_merge_stats_accumulates():
    before = jit.stats()
    jit.merge_stats({
        "compiles": 3, "compile_seconds": 0.5, "disk_hits": 2,
        "cache_repairs": 1, "kernels_requested": 7, "kernels_built": 4,
        "kernels_reused": 3, "builds": 2,
    })
    after = jit.stats()
    for name, delta in (("kernels_requested", 7), ("kernels_built", 4),
                        ("kernels_reused", 3), ("builds", 2)):
        assert after[name] == before[name] + delta
    assert after["compiles"] == before["compiles"] + 3
    assert after["disk_hits"] == before["disk_hits"] + 2
    assert after["cache_repairs"] == before["cache_repairs"] + 1
    assert after["compile_seconds"] == pytest.approx(
        before["compile_seconds"] + 0.5
    )
