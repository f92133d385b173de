"""Checkpoint-warmed state cache: repeated queries skip the step loop.

Entries are keyed by ``(scenario, config, seed, member, step)`` — the
full determinism key of the model: the PR-6 seeding contract makes a
member's state a pure function of exactly those five coordinates, which
is what makes a *state* cache sound at all. Two lookups:

- **exact hit** — a request whose lead step is already cached returns
  the stored response payload with zero model work;
- **warm start** — otherwise the deepest cached step *at or below* the
  requested lead seeds the driver via
  :meth:`~repro.run.EnsembleDriver.add_member` (``snapshot=``), and
  only the remaining steps are computed. The entry carries the original
  run's conservation baselines (``mass0``/``tracer0``) so drift
  reporting stays anchored to the true initial state.

Entries hold bit-exact in-memory :class:`~repro.resilience.Snapshot`
copies (the same machinery the rollback loop trusts), evicted LRU under
an entry *and* byte budget.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import attrgetter
from typing import Dict, Optional, Tuple

from repro.obs.counters import Counters
from repro.resilience import Snapshot

__all__ = ["CacheEntry", "StateCache"]

#: (scenario, config, seed, member) — the step-independent prefix
SeriesKey = Tuple[str, object, int, int]


class CacheEntry:
    """One cached step: the snapshot plus everything the response
    path needs to answer without touching the engine."""

    __slots__ = ("snapshot", "mass0", "tracer0", "report")

    def __init__(self, snapshot: Snapshot, mass0: float,
                 tracer0: Optional[float], report: Dict[str, object]):
        self.snapshot = snapshot
        self.mass0 = mass0
        self.tracer0 = tracer0
        self.report = report

    @property
    def nbytes(self) -> int:
        return self.snapshot.nbytes


def with_hit_ratio(snapshot: Dict[str, object]) -> Dict[str, object]:
    """What readers see: the counters plus the exact-hit ratio."""
    lookups = snapshot["hits"] + snapshot["misses"]
    return {
        **snapshot,
        "hit_ratio": (snapshot["hits"] / lookups) if lookups else None,
    }


class StateCache:
    """LRU over (series key, step) with entry and byte budgets."""

    #: what a cache counts: exact hits and misses, warm starts, evictions
    COUNTED = ("hits", "warm_hits", "misses", "evictions")

    def __init__(self, max_entries: int = 64,
                 max_bytes: int = 512 * 1024 * 1024):
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[SeriesKey, int], CacheEntry]" = (
            OrderedDict()
        )
        self._bytes = 0
        #: the accounting; it shares the cache's lock, under which the
        #: look-ups and ``put`` increment ``_n`` in place
        self.counters = Counters(
            sums=self.COUNTED,
            local={"entries": len, "bytes": attrgetter("_bytes")},
            derive=with_hit_ratio,
            lock=self._lock,
            owner=self,
        )
        self._n = self.counters.values
        self.stats = self.counters.snapshot

    # ------------------------------------------------------------------
    def put(self, series: SeriesKey, step: int, entry: CacheEntry) -> None:
        if self.max_entries <= 0:
            return
        key = (series, int(step))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            while self._entries and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._n["evictions"] += 1

    def exact(self, series: SeriesKey, step: int) -> Optional[CacheEntry]:
        """The entry at exactly ``step``, or None. Counts hit/miss."""
        key = (series, int(step))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._n["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self._n["hits"] += 1
            return entry

    def best_at_or_below(
        self, series: SeriesKey, max_step: int
    ) -> Tuple[Optional[CacheEntry], int]:
        """The deepest cached step ``<= max_step`` for warm starting;
        returns ``(entry, step)`` or ``(None, 0)``. Counts a warm hit
        (not a full hit) when found."""
        best_step = -1
        best_key = None
        with self._lock:
            for (s, step), _ in self._entries.items():
                if s == series and step <= max_step and step > best_step:
                    best_step = step
                    best_key = (s, step)
            if best_key is None:
                return None, 0
            self._entries.move_to_end(best_key)
            self._n["warm_hits"] += 1
            return self._entries[best_key], best_step

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
