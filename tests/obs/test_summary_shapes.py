"""The key sets ``benchmarks/perf`` and the process executor's fold
index do not move: ``runtime_summary()``'s five groups and a service's
``requests`` / ``cache`` summaries, pinned exactly. The report footer
indexes no key: it prints whatever each set's snapshot holds
(``tests/obs/test_footer.py``)."""

import pytest

from repro.runtime import procs, runtime_summary  # noqa: F401 — procs
# reports once it is imported

GROUPS = {
    "pool": {
        "checkouts", "allocations", "allocated_bytes", "released_bytes",
        "live_bytes", "idle_bytes", "high_water_bytes", "peak_slabs",
        "largest_slab_bytes",
    },
    "compile_cache": {
        "hits", "misses", "hit_rate", "by_backend", "program_traces",
        "program_binds", "standins", "plan_swaps", "templates",
        "programs_restored", "programs_stored", "programs_stale",
        "programs_unpersistable", "restore_bytes", "restore_seconds",
        "sdfgs_decoded",
    },
    "jit": {
        "engine", "kernels_requested", "kernels_built", "kernels_reused",
        "builds", "background_builds", "compiles", "compile_seconds",
        "background_seconds", "disk_hits", "cache_repairs",
    },
    "ranks": {
        "workers", "sections", "tasks", "section_seconds", "exchanges",
        "hidden_seconds", "exposed_seconds", "overlap_efficiency",
    },
    "procs": {
        "launches", "workers", "ranks", "steps", "worker_reports_merged",
        "messages", "bytes", "worker_peak_rss_mb",
        "worker_arena_high_water_mb", "worker_threads",
    },
}


def test_runtime_summary_has_its_five_groups():
    assert set(runtime_summary()) == set(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_runtime_summary_group_keys(group):
    assert set(runtime_summary()[group]) == GROUPS[group]


def test_compile_cache_by_backend_rows():
    from repro.runtime import compile_cache

    for row in compile_cache.stats()["by_backend"].values():
        assert set(row) == {"hits", "misses"}


def test_service_summary_keys():
    from repro.serve import ForecastService

    service = ForecastService()
    try:
        summary = service.summary()
    finally:
        service.close()
    assert set(summary["requests"]) == {
        "submitted", "admitted", "shed", "completed", "deadline_exceeded",
        "cancelled", "failed", "retries", "degraded", "batches",
        "batched_requests", "steps_computed", "steps_saved", "latency",
        "queue_wait",
    }
    assert set(summary["requests"]["latency"]) == {
        "count", "p50", "p99", "max",
    }
    assert set(summary["cache"]) == {
        "hits", "warm_hits", "misses", "evictions", "entries", "bytes",
        "raw_bytes", "hit_ratio", "pack_ratio",
    }
