"""The one counter store (``repro.obs.counters``).

The behaviour of a set is checked once, on *every registered set* (plus
a service's, which is per instance): a set a later change registers is
covered by importing its module below, without a test of its own.
"""

import sys
import threading

import pytest

from repro.obs import counters
from repro.obs.counters import Counters
from repro.resilience import record
from repro.run import metrics as ensemble
from repro.runtime import compile_cache, procs, ranks  # noqa: F401
from repro.serve.metrics import ServeMetrics

SETS = {**counters.REGISTRY, "serve": ServeMetrics().counters}


@pytest.fixture(params=sorted(SETS))
def counted(request):
    """One set, zeroed for the test and put back as it was after it."""
    c = SETS[request.param]
    before = c.snapshot()
    c.reset()
    try:
        yield c
    finally:
        c.reset()
        c.merge(before)


def _fill(c):
    """Distinct non-zero values everywhere; the snapshot of them."""
    for i, name in enumerate(c.sums):
        c.add(name, i + 1.5)
    for i, name in enumerate(c.peaks):
        c.peak(name, 10 * (i + 1))
    for i, name in enumerate(c.labelled):
        c.add(name, i + 1, label="numpy")
        c.add(name, i + 2, label="compiled")
    return c.snapshot()


def test_every_process_wide_store_is_registered():
    assert {"pool", "compile_cache", "jit", "ranks", "procs", "ensemble",
            "resilience"} <= set(counters.REGISTRY)
    with pytest.raises(ValueError, match="already registered"):
        counters.register("jit", Counters(sums=("x",)))


def test_merging_its_own_snapshot_doubles_sums_only(counted):
    c = counted
    once = _fill(c)
    c.merge(once)
    twice = c.snapshot()
    assert c.sums and set(c.sums + c.peaks) | set(c.local) <= set(once)
    for name in c.sums:
        assert twice[name] == 2 * once[name] != 0
    for name in c.peaks + tuple(c.local):
        assert twice[name] == once[name]
    if c.family:
        for label, row in once[c.family].items():
            for name in c.labelled:
                assert twice[c.family][label][name] == 2 * row[name] != 0


def test_merge_takes_the_larger_peak_and_tolerates_a_partial_payload(counted):
    c = counted
    once = _fill(c)
    partial = {c.sums[0]: 5}
    if c.peaks:
        partial[c.peaks[0]] = once[c.peaks[0]] + 1
    c.merge(partial)
    c.merge({name: 1 for name in c.peaks})  # below every peak: no change
    after = c.snapshot()
    assert after[c.sums[0]] == once[c.sums[0]] + 5
    for name in c.sums[1:] + c.peaks[1:]:
        assert after[name] == once[name]
    if c.peaks:
        assert after[c.peaks[0]] == once[c.peaks[0]] + 1


def test_since_is_the_delta_of_two_snapshots(counted):
    c = counted
    before = _fill(c)
    c.add(c.sums[0], 4)
    if c.family:
        c.add(c.labelled[0], 3, label="compiled")
        c.add(c.labelled[0], 2, label="dataflow")  # a row ``before`` lacks
    delta = c.since(before)
    assert delta[c.sums[0]] == 4
    assert all(delta[name] == 0 for name in c.sums[1:])
    assert all(delta[name] == before[name] for name in c.peaks)
    if c.family:
        rows = delta[c.family]
        assert rows["compiled"][c.labelled[0]] == 3
        assert rows["dataflow"][c.labelled[0]] == 2
        assert not any(rows["numpy"].values())


def test_reset_zeroes_sums_peaks_and_rows_in_place(counted):
    c = counted
    values = c.values
    filled = _fill(c)
    c.reset()
    zero = c.snapshot()
    assert c.values is values  # an owner's reference stays good
    assert all(zero[name] == 0 for name in c.sums + c.peaks)
    assert all(zero[name] == filled[name] for name in c.local)
    if c.family:
        assert zero[c.family] == {}


def test_an_undeclared_name_is_an_error_not_a_new_counter(counted):
    c = counted
    for use in (c.add, lambda name: c.peak(name, 1),
                lambda name: c.add(name, label="compiled")):
        with pytest.raises(KeyError):
            use("no_such_counter")
    assert "no_such_counter" not in c.snapshot()
    assert "no_such_counter" not in c.snapshot().get(c.family, {}).get(
        "compiled", {})


def test_concurrent_adds_lose_nothing(counted):
    c = counted
    name, threads, each = c.sums[0], 8, 2000
    start = threading.Barrier(threads)

    def work():
        start.wait(timeout=30)
        for _ in range(each):
            c.add(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert c.snapshot()[name] == threads * each


# -- what is derived from a snapshot, where it always was -----------------


@pytest.mark.parametrize("counted", ["ranks"], indirect=True)
def test_overlap_efficiency_of_merged_seconds(counted):
    counted.merge({
        "workers": 6, "sections": 4, "tasks": 24, "section_seconds": 1.5,
        "exchanges": 8, "hidden_seconds": 0.25, "exposed_seconds": 0.75,
    })
    counted.merge({"workers": 2, "sections": 1, "tasks": 2})
    out = ranks.summary()
    assert (out["workers"], out["sections"], out["tasks"],
            out["exchanges"]) == (6, 5, 26, 8)
    assert out["overlap_efficiency"] == 0.25
    ranks.reset_metrics()
    assert ranks.summary()["overlap_efficiency"] is None


@pytest.mark.parametrize("counted", ["compile_cache"], indirect=True)
def test_compile_cache_totals_are_sums_over_backends(counted):
    counted.merge({"by_backend": {"compiled": {"hits": 3, "misses": 1}}})
    counted.merge({"by_backend": {"compiled": {"hits": 1},
                                  "numpy": {"misses": 4}}})
    # totals without rows say nothing about a backend: not invented
    counted.merge({"hits": 100, "misses": 100})
    stats = compile_cache.stats()
    assert stats["by_backend"] == {
        "compiled": {"hits": 4, "misses": 1},
        "numpy": {"hits": 0, "misses": 4},
    }
    assert (stats["hits"], stats["misses"], stats["hit_rate"]) == (4, 5, 4 / 9)


@pytest.mark.parametrize("counted", ["ensemble"], indirect=True)
def test_compile_amortization_of_the_accumulated_runs(counted):
    assert ensemble.summary()["compile_amortization"] is None
    counted.merge({"runs": 1, "compile_hits": 3, "compile_misses": 1})
    assert ensemble.summary()["compile_amortization"] == 0.75


def test_a_misspelt_recovery_counter_raises():
    with pytest.raises(KeyError):
        record("halo_timeout")  # the counter is ``halo_timeouts``


def test_a_misspelt_serving_counter_raises():
    with pytest.raises(KeyError):
        ServeMetrics().bump("submited")


# -- the registry ----------------------------------------------------------


def test_registry_loops(monkeypatch):
    a = Counters(sums=("n",), peaks=("high",))
    b = Counters(sums=("m",), local={"here": lambda: "this process"})
    monkeypatch.setattr(counters, "REGISTRY", {"a": a, "b": b})
    a.add("n", 2)
    a.peak("high", 5)
    b.add("m")
    payload = counters.snapshot_all()
    assert payload == {"a": {"n": 2, "high": 5},
                       "b": {"m": 1, "here": "this process"}}
    counters.merge_all(payload)
    assert counters.snapshot_all() == {
        "a": {"n": 4, "high": 5}, "b": {"m": 2, "here": "this process"},
    }
    counters.reset_all()
    assert counters.snapshot_all() == {
        "a": {"n": 0, "high": 0}, "b": {"m": 0, "here": "this process"},
    }
    with pytest.raises(KeyError):  # a group this process does not know
        counters.merge_all({"c": {"n": 1}})


# -- a set kept on its owner -------------------------------------------------


def test_a_set_holds_its_owner_weakly():
    """``self.counters`` is no reference cycle: the owner's locals take
    it as their argument, the set holds it weakly, and an owner dropped
    with the collector off is gone at once."""
    import gc
    import weakref

    class Owner:
        def __init__(self):
            self.items = [1, 2, 3]
            self.counters = Counters(
                sums=("n",), local={"items": lambda owner: len(owner.items)},
                owner=self,
            )

    enabled = gc.isenabled()
    gc.disable()
    try:
        owner = Owner()
        kept = owner.counters
        assert kept.snapshot() == {"n": 0, "items": 3}
        ref = weakref.ref(owner)
        del owner
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert kept.snapshot() == {"n": 0, "items": None}


def test_a_local_closing_over_an_object_is_refused():
    class Owner:
        size = 3

        def read(self):
            return self.size

    owner = Owner()
    with pytest.raises(TypeError):
        Counters(local={"size": lambda: owner.size})
    with pytest.raises(TypeError):
        Counters(local={"size": owner.read})
