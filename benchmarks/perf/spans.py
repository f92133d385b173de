"""Span bookkeeping: the benchmark's own spans (source A) and the
aggregation of the program's ``repro.obs`` span tree (source B).

Source A is an in-memory recorder the benchmark wraps around each public
call it makes; spans are written out once, when the run ends. Source B
is the tree ``repro.obs.to_json()`` returns in a traced process; its
nodes are already aggregated by (parent, name), so a layer's time is a
sum over the nodes whose name starts with one of the layer's prefixes.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class Recorder:
    """Benchmark-side spans: (id, name, start, end, parent, workload, op).

    ``op`` is the operation a span belongs to (the step, call or request
    index), so the spans of one operation share an identifier.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every finished span called ``name``."""
        return [
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Self time per span id: the span's duration minus the part of it
    its direct children cover (children of one parent never overlap
    here, because one thread records them in sequence)."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def self_time_by_name(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Self time summed over the spans that share a name."""
    per_id = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + per_id[s["id"]]
    return out


# ---------------------------------------------------------------------------
# source B: the program's own span tree
# ---------------------------------------------------------------------------
def walk(nodes: Iterable[Dict[str, object]]) -> Iterator[Dict[str, object]]:
    """Every node of an ``obs.to_json()["spans"]`` forest, depth first."""
    for node in nodes:
        yield node
        yield from walk(node.get("children") or ())


def node_self_seconds(node: Dict[str, object]) -> float:
    """A tree node's self time, from its own and its children's totals
    (recomputed here, so a tree without ``self_seconds`` also works)."""
    return node["total_seconds"] - sum(
        c["total_seconds"] for c in node.get("children") or ()
    )


def sum_by_prefix(
    nodes: Iterable[Dict[str, object]],
    prefixes: Tuple[str, ...],
    self_only: bool,
) -> Tuple[float, int]:
    """(seconds, entries) over the nodes whose name starts with one of
    ``prefixes``. ``self_only`` sums self time, which is right when the
    matching nodes nest in one another or hold other layers' spans;
    leaves (kernels, the halo exchange) are summed by total time."""
    seconds, count = 0.0, 0
    for node in walk(nodes):
        if node["name"].startswith(prefixes):
            seconds += (
                node_self_seconds(node) if self_only
                else node["total_seconds"]
            )
            count += node["count"]
    return seconds, count


def sum_attr(nodes: Iterable[Dict[str, object]], prefix: str,
             attr: str) -> float:
    """Sum of a numeric span attribute over nodes named ``prefix*``."""
    return sum(
        node["attrs"].get(attr, 0) for node in walk(nodes)
        if node["name"].startswith(prefix)
    )
