import random
from collections import Counter

import pytest

from benchmarks.perf import stream


def _flat(epochs):
    return [r for epoch in epochs for r in epoch]


def test_same_seed_same_stream():
    assert stream.make_stream(12, 20) == stream.make_stream(12, 20)
    assert stream.make_stream(12, 20) != stream.make_stream(13, 20)


def test_a_longer_stream_extends_a_shorter_one():
    """The reference process regenerates only the first epoch and must
    see the requests the timed processes sent."""
    assert stream.make_stream(5, 40)[:2] == stream.make_stream(5, 1)


@pytest.mark.parametrize("seed", [0, 1, 12, 99])
def test_class_shares_and_work_per_epoch(seed):
    epochs = stream.make_stream(seed, 30)
    # the prefill fills the cache with one-step misses on distinct series
    assert [(r.planned, r.steps) for r in epochs[0]] == (
        [("miss", 1)] * stream.CACHE_ENTRIES)
    assert len({r.series for r in epochs[0]}) == stream.CACHE_ENTRIES
    planned = Counter(r.planned for r in _flat(epochs[1:]))
    total = sum(planned.values())
    for name, target in (("hit", 0.30), ("warm", 0.20), ("miss", 0.50)):
        assert abs(planned[name] / total - target) <= 0.05
    for epoch in epochs[1:]:
        assert len(epoch) == stream.EPOCH_SIZE
        assert all(1 <= r.steps <= stream.MAX_LEAD for r in epoch)


@pytest.mark.parametrize("seed", [0, 3, 12, 38, 77])
def test_the_cache_model_agrees_with_the_plan(seed):
    """Sent through an LRU model of the service's cache, every request
    gets the class the plan gave it, every epoch makes the service
    compute the same steps and evict as many entries as it adds. That
    holds in plan order and in the orders two clients can produce: the
    prefill perturbed by a few places, every epoch in any order."""
    epochs = stream.make_stream(seed, 60)
    rng = random.Random(seed)
    prefill = list(epochs[0])
    for i in range(len(prefill) - 3):
        j = i + rng.randrange(4)
        prefill[i], prefill[j] = prefill[j], prefill[i]
    mixed = [prefill] + [rng.sample(e, len(e)) for e in epochs[1:]]
    for order in (epochs, mixed):
        observed, evictions = stream.simulate_cache(_flat(order))
        assert [c for c, _ in observed] == [r.planned for r in _flat(order)]
        assert evictions == 60 * stream.EPOCH_PUTS
        at = len(order[0])
        for epoch in order[1:]:
            steps = sum(n for _, n in observed[at:at + len(epoch)])
            assert steps == stream.EPOCH_STEPS
            at += len(epoch)


def test_the_working_set_exceeds_the_cache():
    epochs = stream.make_stream(12, 6)      # one 10-second run
    keys = {(r.series, r.steps) for r in _flat(epochs)}
    assert len(keys) > stream.CACHE_ENTRIES
    # hits go back to entries of earlier epochs, the prefill included
    produced = {}
    for index, epoch in enumerate(epochs):
        for r in epoch:
            if r.planned == "hit":
                assert produced[(r.series, r.steps)] < index
            else:
                produced[(r.series, r.steps)] = index
