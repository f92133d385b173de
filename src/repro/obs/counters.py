"""The one counter store: declared sets, and a registry of them.

Every subsystem that counts — the JIT, the compile cache, the arena, the
rank and process executors, the ensemble driver, the resilience layer, a
forecast service — declares a :class:`Counters` set once and increments
it; nothing else about counting is written per subsystem. A set knows
how each of its names behaves when the view of another process is folded
into it, which is the only thing that ever differed between the stores:

- **sums** add (``checkouts``, ``compile_seconds``, ``halo_redeliveries``);
- **peaks** take the maximum (``high_water_bytes``, ``workers``): two
  processes are two address spaces, their high waters do not stack;
- **locals** describe this process and are never merged or reset
  (``live_bytes``, ``entries``, ``engine``): each is a function
  evaluated when a snapshot is taken;
- one **labelled family** at most (the compile cache's ``hits`` /
  ``misses`` by backend), which snapshots as a dictionary of rows under
  the family's name and sums row by row.

A name that was not declared is a ``KeyError`` wherever it is used: a
misspelt counter is an error, not a new counter nobody prints.

Process-wide sets :func:`register` themselves under a group name when
their module is imported. A rank worker zeroes them with
:func:`reset_all`, ships :func:`snapshot_all` in its report, and its
parent folds that with :func:`merge_all` — so what the parent sees of
its workers is whatever is registered, not what someone remembered to
list. Report footers, ``obs.to_json()`` and
:func:`repro.runtime.runtime_summary` are views of the same registry.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

__all__ = ["Counters", "REGISTRY", "register", "snapshot_all", "merge_all",
           "reset_all"]

Snapshot = Dict[str, object]


class Counters:
    """A declared set of counters (see the module docstring).

    ``family`` is ``(name, (counter, ...))``; ``derive`` maps the plain
    snapshot to what readers see — rates and totals that are functions
    of the counters — and is applied by :meth:`snapshot` and
    :meth:`since` alike, so the rate of a delta is the delta's rate.
    ``lock`` lets an owner that already serialises its updates share its
    lock with the set: under it the owner may increment :attr:`values`
    in place, at no cost beyond the dictionary store.
    """

    def __init__(
        self,
        sums: Iterable[str] = (),
        peaks: Iterable[str] = (),
        local: Optional[Mapping[str, Callable[[], object]]] = None,
        family: Optional[Tuple[str, Iterable[str]]] = None,
        derive: Optional[Callable[[Snapshot], Snapshot]] = None,
        lock: Optional[threading.Lock] = None,
    ):
        self.sums = tuple(sums)
        self.peaks = tuple(peaks)
        self.local = dict(local or {})
        self.family, labelled = family or (None, ())
        self.labelled = tuple(labelled)
        self.derive = derive
        self.lock = lock if lock is not None else threading.Lock()
        #: sums and peaks by name; zeroed in place, never replaced
        self.values: Dict[str, float] = dict.fromkeys(
            self.sums + self.peaks, 0
        )
        #: label → row of the family's counters
        self.rows: Dict[str, Dict[str, float]] = {}

    def _row(self, label: str) -> Dict[str, float]:
        row = self.rows.get(label)
        if row is None:
            row = self.rows[label] = dict.fromkeys(self.labelled, 0)
        return row

    def add(self, name: str, n: float = 1,
            label: Optional[str] = None) -> None:
        """Add ``n`` to a sum, or to ``label``'s row of the family."""
        with self.lock:
            if label is None:
                self.values[name] += n
            elif name in self.labelled:
                self._row(label)[name] += n
            else:
                raise KeyError(name)

    def peak(self, name: str, value: float) -> None:
        """Raise a peak to ``value`` if it is below it."""
        with self.lock:
            if value > self.values[name]:
                self.values[name] = value

    def _plain(self) -> Snapshot:
        with self.lock:
            out: Snapshot = dict(self.values)
            if self.family is not None:
                out[self.family] = {
                    label: dict(self.rows[label])
                    for label in sorted(self.rows)
                }
        # outside the lock: a local may take its owner's
        for name, read in self.local.items():
            out[name] = read()
        return out

    def _view(self, plain: Snapshot) -> Snapshot:
        return self.derive(plain) if self.derive is not None else plain

    def snapshot(self) -> Snapshot:
        """Every declared name and its value now, as plain data."""
        return self._view(self._plain())

    def since(self, before: Snapshot) -> Snapshot:
        """A snapshot in which the sums are what was added after
        ``before`` was taken (peaks and locals are as they are now)."""
        now = self._plain()
        for name in self.sums:
            now[name] -= before[name]
        if self.family is not None:
            for label, row in now[self.family].items():
                for name, was in before[self.family].get(label, {}).items():
                    row[name] -= was
        return self._view(now)

    def merge(self, snapshot: Snapshot) -> None:
        """Fold another set's snapshot — a worker process's, another
        service's — into this one by each name's kind. Names the
        snapshot does not carry count as zero."""
        with self.lock:
            for name in self.sums:
                self.values[name] += snapshot.get(name, 0)
            for name in self.peaks:
                self.values[name] = max(
                    self.values[name], snapshot.get(name, 0)
                )
            if self.family is not None:
                for label, theirs in snapshot.get(self.family, {}).items():
                    row = self._row(label)
                    for name in self.labelled:
                        row[name] += theirs.get(name, 0)

    def reset(self) -> None:
        """Zero the sums and peaks and drop the family's rows."""
        with self.lock:
            for name in self.values:
                self.values[name] = 0
            self.rows.clear()


#: group name → the process-wide set registered under it
REGISTRY: Dict[str, Counters] = {}


def register(group: str, counters: Counters) -> Counters:
    """Make ``counters`` the process-wide set of ``group``."""
    if group in REGISTRY:
        raise ValueError(f"counter group {group!r} is already registered")
    REGISTRY[group] = counters
    return counters


def snapshot_all() -> Dict[str, Snapshot]:
    """The snapshot of every registered set, by group."""
    return {group: c.snapshot() for group, c in REGISTRY.items()}


def merge_all(payload: Mapping[str, Snapshot]) -> None:
    """Fold another process's :func:`snapshot_all` into this process's
    sets. A group this process has not registered is a ``KeyError``:
    dropping it would lose what the other process counted."""
    for group, snapshot in payload.items():
        REGISTRY[group].merge(snapshot)


def reset_all() -> None:
    for counters in REGISTRY.values():
        counters.reset()
