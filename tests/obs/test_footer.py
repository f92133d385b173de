"""The report is the counter registry: once a registered set has counted
anything, the report has a footer line for it that names every name of
its snapshot, derived values included, and ``obs.to_json()`` carries
every registered set. A set a later change registers is covered by
importing its module below."""

import json
import re

import pytest

from repro import obs
from repro.obs import counters
from repro.obs.tracer import Tracer
import repro.resilience  # noqa: F401 — registers "resilience"
import repro.run.metrics  # noqa: F401 — registers "ensemble"
from repro.runtime import procs  # noqa: F401 — registers "procs"
from repro.sdfg import plan  # noqa: F401 — registers "plan"

GROUPS = sorted(counters.REGISTRY)


def _traced_report() -> str:
    tracer = Tracer("footer", enabled=True)
    with tracer.span("step"):
        pass
    return obs.report(tracer)


@pytest.fixture(params=GROUPS)
def counted(request):
    """One set with its first sum at 1, put back as it was after."""
    c = counters.REGISTRY[request.param]
    before = c.snapshot()
    c.reset()
    c.add(c.sums[0])
    try:
        yield request.param, c
    finally:
        c.reset()
        c.merge(before)


def test_the_registry_has_the_groups_the_report_must_show():
    assert {"plan", "pool", "compile_cache", "jit", "ranks", "procs",
            "ensemble", "resilience"} <= set(GROUPS)


def test_a_set_that_counted_has_a_line_with_every_name(counted):
    group, c = counted
    (line,) = [
        ln for ln in _traced_report().splitlines()
        if ln.startswith(f"{group}: ")
    ]
    assert re.search(rf"(: |, ){c.sums[0]} 1(,|$)", line)
    missing = [
        name for name in c.snapshot()
        if not re.search(rf"(: |, ){name} ", line)
    ]
    assert missing == []


def test_the_footer_is_sorted_by_group():
    before = counters.snapshot_all()
    try:
        for c in counters.REGISTRY.values():
            c.add(c.sums[0])
        shown = [
            ln.split(":", 1)[0] for ln in _traced_report().splitlines()
            if ln.split(":", 1)[0] in counters.REGISTRY
        ]
    finally:
        counters.reset_all()
        counters.merge_all(before)
    assert shown == sorted(counters.REGISTRY)


def test_the_json_export_carries_every_registered_set():
    payload = json.loads(obs.to_json(Tracer("footer", enabled=True)))
    assert set(payload["counters"]) == set(counters.REGISTRY) >= set(GROUPS)
    assert payload["counters"]["plan"] == plan.COUNTERS.snapshot()
    assert "runtime" not in payload and "ensemble" not in payload
    assert "counters" not in payload["resilience"]
    assert set(payload["resilience"]) == {"fallback_log", "chaos"}


def test_the_pool_line_counts_the_pages_it_gave_back():
    """``released_bytes`` is a name of the pool's set, so the footer
    prints it with no line written for it."""
    from repro.runtime.pool import current, get_pool

    pool = get_pool()
    worker = current()
    worker.take(1 << 16)
    worker.depth -= 1
    pool.trim(workers=[worker])
    (line,) = [
        ln for ln in _traced_report().splitlines() if ln.startswith("pool: ")
    ]
    assert f"released_bytes {pool.stats()['released_bytes']}," in line
