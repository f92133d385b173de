"""The seeded request stream of the ``serve_mix`` workload.

The stream opens with a *prefill* of one-step misses on distinct series,
as many as the service's state cache holds (64), so that the cache is
full before anything is timed and every later computed request evicts
its least recently used entry. Then come *epochs* of ten requests with
one fixed composition: three exact cache hits, two warm starts and five
misses, leads of one to four steps. Every epoch asks the service for the
same sixteen model steps, so the wall time of an epoch is a repeatable
operation. The key universe is unbounded (every miss names a series
never seen before), so the working set always exceeds the cache.

Which series a request names, which cached entry a hit or a warm start
goes back to and the order inside an epoch all come from the stream
seed. The plan keeps an LRU model of the cache and lets hits and warm
starts go back only to the younger half of it, as it stood when the
epoch began, and warm-starts a series once only: the two clients finish
an epoch before the next one starts, so whatever order they interleave
in, no entry the plan goes back to is near the evicted end, no key it
asks for anew lingers there, and a request's class is fixed by the plan.
"""

from __future__ import annotations

import dataclasses
import random
from collections import OrderedDict
from typing import List, Sequence, Tuple

#: entries of the service's state cache (``ServiceConfig.cache_entries``)
CACHE_ENTRIES = 64
#: hits and warm starts go back to this many most recently used entries
YOUNG = CACHE_ENTRIES // 2
#: leads of the five misses of an epoch (thirteen steps)
MISS_LEADS = (1, 2, 3, 3, 4)
#: steps the two warm starts of an epoch still have to compute
WARM_DELTAS = (1, 2)
HITS_PER_EPOCH = 3
EPOCH_SIZE = len(MISS_LEADS) + len(WARM_DELTAS) + HITS_PER_EPOCH
#: model steps one epoch makes the service compute
EPOCH_STEPS = sum(MISS_LEADS) + sum(WARM_DELTAS)
#: entries one epoch adds to the cache (and, once it is full, evicts)
EPOCH_PUTS = len(MISS_LEADS) + len(WARM_DELTAS)
MAX_LEAD = max(MISS_LEADS)
#: perturbed members per root seed (member 0 is the unperturbed control,
#: whose state does not depend on the root seed)
MEMBERS = 12

Series = Tuple[int, int]
Key = Tuple[Series, int]


@dataclasses.dataclass(frozen=True)
class PlannedRequest:
    """One request of the stream and the cache class the plan expects."""

    seed: int
    member: int
    steps: int
    planned: str          # "hit" | "warm" | "miss"

    @property
    def series(self) -> Series:
        return (self.seed, self.member)


def nth_series(seed: int, index: int) -> Series:
    """The ``index``-th new (root seed, member) pair of one stream."""
    return (1000 * seed + index // MEMBERS, 1 + index % MEMBERS)


def _put(lru: "OrderedDict[Key, None]", key: Key) -> None:
    lru[key] = None
    lru.move_to_end(key)
    while len(lru) > CACHE_ENTRIES:
        lru.popitem(last=False)


def make_stream(seed: int, epochs: int) -> List[List[PlannedRequest]]:
    """The prefill (index 0) and ``epochs`` epochs after it."""
    rng = random.Random(f"stream-{seed}")
    lru: "OrderedDict[Key, None]" = OrderedDict()
    used = 0
    prefill = []
    for _ in range(CACHE_ENTRIES):
        series = nth_series(seed, used)
        used += 1
        prefill.append(PlannedRequest(*series, 1, "miss"))
        _put(lru, (series, 1))
    stream = [prefill]
    warmed = set()
    for _ in range(epochs):
        young = list(lru)[-YOUNG:]
        requests: List[PlannedRequest] = []
        touched: List[Key] = []
        for series, lead in rng.sample(young, HITS_PER_EPOCH):
            requests.append(PlannedRequest(*series, lead, "hit"))
            touched.append((series, lead))
        for delta in WARM_DELTAS:
            # a young entry that leaves room for exactly `delta` more
            # steps. A series is warm-started once only, so the entry is
            # its single one and the key asked for has never existed:
            # an old copy lingering at the evicted end of the real
            # cache could otherwise turn the warm start into a hit.
            base = rng.choice([
                (s, lead) for s, lead in young
                if s not in warmed and lead + delta <= MAX_LEAD
            ])
            warmed.add(base[0])
            requests.append(
                PlannedRequest(*base[0], base[1] + delta, "warm"))
            touched += [base, (base[0], base[1] + delta)]
        leads = list(MISS_LEADS)
        rng.shuffle(leads)
        for lead in leads:
            series = nth_series(seed, used)
            used += 1
            requests.append(PlannedRequest(*series, lead, "miss"))
            touched.append((series, lead))
        for key in touched:
            _put(lru, key)
        rng.shuffle(requests)
        stream.append(requests)
    return stream


def simulate_cache(requests: Sequence[PlannedRequest],
                   ) -> Tuple[List[Tuple[str, int]], int]:
    """((class, steps computed) of each request, evictions) under a
    sequential model of the service's state cache: LRU over (series,
    step); an exact lookup or a warm start refreshes the entry it used;
    only a computed request's final step is stored. The self-tests hold
    the plan against this, in plan order and in shuffled order."""
    lru: "OrderedDict[Key, None]" = OrderedDict()
    out: List[Tuple[str, int]] = []
    evictions = 0
    for req in requests:
        key = (req.series, req.steps)
        if key in lru:
            lru.move_to_end(key)
            out.append(("hit", 0))
            continue
        below = [k for k in lru if k[0] == req.series and k[1] <= req.steps]
        if below:
            start = max(below, key=lambda k: k[1])
            lru.move_to_end(start)
            out.append(("warm", req.steps - start[1]))
        else:
            out.append(("miss", req.steps))
        lru[key] = None
        while len(lru) > CACHE_ENTRIES:
            lru.popitem(last=False)
            evictions += 1
    return out, evictions
