"""The checkpoint-warmed state cache: lookups, LRU bounds, stats."""

import numpy as np

from repro.resilience import Snapshot
from repro.serve import CacheEntry, StateCache


def snap(step, cells=8, u=None):
    arrays = [{"u": np.full((cells,), float(step)) if u is None else u}]
    tracers = [[np.zeros((cells,))]]
    return Snapshot(arrays=arrays, tracers=tracers, time=60.0 * step,
                    step=step).pack()


def entry(step, cells=8, u=None):
    return CacheEntry(snap(step, cells, u), mass0=1.0, tracer0=None,
                      report={"step": step})


SERIES = ("wave", None, 0, 0)
OTHER = ("wave", None, 1, 0)


def test_exact_hit_and_miss_counting():
    cache = StateCache(max_entries=4)
    cache.put(SERIES, 3, entry(3))
    assert cache.exact(SERIES, 3).report == {"step": 3}
    assert cache.exact(SERIES, 4) is None
    assert cache.exact(OTHER, 3) is None  # other seed: different series
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 2
    assert stats["hit_ratio"] == 1 / 3


def test_best_at_or_below_picks_deepest_usable_step():
    cache = StateCache(max_entries=8)
    for step in (2, 5, 9):
        cache.put(SERIES, step, entry(step))
    cache.put(OTHER, 7, entry(7))
    found, step = cache.best_at_or_below(SERIES, 8)
    assert step == 5 and found.report == {"step": 5}
    found, step = cache.best_at_or_below(SERIES, 1)
    assert found is None and step == 0
    assert cache.stats()["warm_hits"] == 1


def test_lru_eviction_by_entry_count():
    cache = StateCache(max_entries=2)
    cache.put(SERIES, 1, entry(1))
    cache.put(SERIES, 2, entry(2))
    assert cache.exact(SERIES, 1) is not None  # refresh 1: now 2 is LRU
    cache.put(SERIES, 3, entry(3))
    assert len(cache) == 2
    assert cache.exact(SERIES, 2) is None
    assert cache.exact(SERIES, 1) is not None
    assert cache.stats()["evictions"] == 1


def test_byte_budget_evicts_oldest():
    one = entry(1, cells=1000)
    budget = int(one.nbytes * 2.5)  # room for two entries, not three
    cache = StateCache(max_entries=100, max_bytes=budget)
    for step in (1, 2, 3):
        cache.put(SERIES, step, entry(step, cells=1000))
    assert len(cache) == 2
    assert cache.exact(SERIES, 1) is None
    assert cache.stats()["bytes"] <= budget


def test_put_replaces_existing_step_without_growth():
    cache = StateCache(max_entries=4)
    cache.put(SERIES, 3, entry(3))
    fresh = entry(3)
    fresh.report["marker"] = True
    cache.put(SERIES, 3, fresh)
    assert len(cache) == 1
    assert cache.exact(SERIES, 3).report["marker"] is True


def test_zero_entries_disables_caching():
    cache = StateCache(max_entries=0)
    cache.put(SERIES, 1, entry(1))
    assert len(cache) == 0


def test_clear_drops_entries_and_bytes():
    cache = StateCache(max_entries=4)
    cache.put(SERIES, 1, entry(1))
    cache.clear()
    assert len(cache) == 0 and cache.stats()["bytes"] == 0
    assert cache.stats()["raw_bytes"] == 0


def _held(cache):
    return [step for _, step in cache._entries]


def test_bytes_are_the_packed_entries_through_put_evict_and_clear():
    """``bytes`` is the sum of the held entries' packed sizes and
    ``raw_bytes`` of their unpacked ones, whatever put, eviction and
    clear did; packing changes neither the LRU order nor the entry
    budget."""
    rng = np.random.default_rng(5)
    made = {
        step: entry(step, cells=1000,
                    u=rng.normal(size=1000) * 10.0 ** step)
        for step in range(1, 7)
    }
    cache = StateCache(max_entries=3)

    def check(steps):
        assert _held(cache) == steps
        stats = cache.stats()
        assert stats["entries"] == len(steps)
        assert stats["bytes"] == sum(made[s].nbytes for s in steps)
        assert stats["raw_bytes"] == sum(made[s].raw_nbytes for s in steps)
        assert stats["raw_bytes"] == len(steps) * 2 * 1000 * 8

    for step in (1, 2, 3):
        cache.put(SERIES, step, made[step])
    check([1, 2, 3])
    assert made[1].nbytes < made[1].raw_nbytes
    assert cache.exact(SERIES, 1) is made[1]  # refresh 1: 2 is LRU
    cache.put(SERIES, 4, made[4])
    check([3, 1, 4])
    found, _ = cache.best_at_or_below(SERIES, 3)  # refresh 3
    assert found is made[3]
    cache.put(SERIES, 5, made[5])
    check([4, 3, 5])
    cache.put(SERIES, 4, made[6])  # replaces step 4's entry in place
    made[4] = made[6]
    check([3, 5, 4])
    assert cache.stats()["evictions"] == 2
    cache.clear()
    check([])
