"""Rendering of recorded span trees: text tables and JSON export.

The text report is the human-facing view — an indented span tree with
call counts, total/self wall time, and (for spans carrying a ``bytes``
attribute) achieved GB/s plus the fraction of the observed machine's
roofline bandwidth — and below it one footer line per counter set that
has counted anything (:func:`_footer`). The JSON export is the
machine-facing view consumed by the benchmarks.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Mapping, Optional

from repro.machine import MachineModel
from repro.obs.counters import REGISTRY, snapshot_all
from repro.obs.metrics import observed_machine
from repro.obs.tracer import Span, Tracer, get_tracer

__all__ = ["report", "snapshot", "to_json"]


def snapshot(node: Span) -> Dict[str, object]:
    """A JSON-able copy of one span subtree."""
    return {
        "name": node.name,
        "count": node.count,
        "total_seconds": node.total_seconds,
        "self_seconds": node.self_seconds,
        "attrs": dict(node.attrs),
        "children": [snapshot(c) for c in node.children.values()],
    }


def to_json(tracer: Optional[Tracer] = None, indent: Optional[int] = 2) -> str:
    """Serialize a tracer's full span tree (default tracer if omitted),
    every registered counter set, the resilience layer's fallback log
    and chaos record, and the serving summary."""
    from repro.resilience import summary

    tracer = tracer or get_tracer()
    resilience = summary()
    del resilience["counters"]  # the registry's "resilience" group
    payload = {
        "tracer": tracer.name,
        "machine": observed_machine().name,
        "spans": [snapshot(c) for c in tracer.root.children.values()],
        "counters": snapshot_all(),
        "resilience": resilience,
        "serving": _serving(),
    }
    return json.dumps(payload, indent=indent)


def _serving() -> Optional[Dict[str, object]]:
    # a process that never imported the serving layer has no services
    serve = sys.modules.get("repro.serve")
    return None if serve is None else serve.serving_summary()


def _value(value: object) -> str:
    if isinstance(value, Mapping):
        return f"({_cells(value)})"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _cells(values: Mapping[str, object]) -> str:
    return ", ".join(f"{name} {_value(v)}" for name, v in values.items())


def _footer() -> List[str]:
    """One line ``group: name value, …`` per registered counter set that
    has counted anything (a nonzero sum or peak, or a family row), over
    every name of its snapshot, derived values included; and in the same
    form the services' merged summary once one has handled a request and
    the chaos plan's injection record once it has injected. Sorted by
    group name; values print as the sets hold them (bytes, seconds,
    fractions)."""
    views = {
        group: counters.snapshot()
        for group, counters in REGISTRY.items()
        if any(counters.values.values()) or counters.rows
    }
    serving = _serving()
    if serving:
        views["serving"] = serving
    resilience = sys.modules.get("repro.resilience")
    if resilience is not None:
        chaos = resilience.summary()["chaos"]
        if chaos["injected_total"]:
            views["chaos"] = chaos
    return [f"{group}: {_cells(views[group])}" for group in sorted(views)]


def _bandwidth_cells(node: Span, machine: MachineModel) -> str:
    nbytes = node.attrs.get("bytes")
    if not isinstance(nbytes, (int, float)) or node.total_seconds <= 0:
        return f"{'':>9} {'':>7}"
    gbs = nbytes / node.total_seconds / 1e9
    frac = nbytes / node.total_seconds / machine.achievable_bandwidth
    return f"{gbs:>7.2f}GB/s {100 * frac:>5.1f}%"


def _attr_cell(node: Span) -> str:
    shown = []
    for key, value in node.attrs.items():
        if key == "bytes":
            continue
        if isinstance(value, float):
            shown.append(f"{key}={value:.3g}")
        else:
            shown.append(f"{key}={value}")
    return "  ".join(shown)


def _render(node: Span, depth: int, lines: List[str],
            machine: MachineModel) -> None:
    name = "  " * depth + node.name
    lines.append(
        f"{name:<44} {node.count:>7} {node.total_seconds:>10.4f}s "
        f"{node.self_seconds:>10.4f}s {_bandwidth_cells(node, machine)}"
        f"  {_attr_cell(node)}".rstrip()
    )
    for child in node.children.values():
        _render(child, depth + 1, lines, machine)


def report(
    tracer: Optional[Tracer] = None,
    machine: Optional[MachineModel] = None,
) -> str:
    """Render the recorded span tree as a text table.

    ``machine`` selects the roofline reference for the GB/s column
    (default: :func:`repro.obs.metrics.observed_machine`).
    """
    tracer = tracer or get_tracer()
    machine = machine or observed_machine()
    if not tracer.root.children:
        return (
            "no spans recorded — enable tracing with REPRO_TRACE=1 "
            "or repro.obs.enable()"
        )
    lines = [
        f"span tree ({tracer.name!r} tracer, roofline: {machine.name})",
        f"{'span':<44} {'calls':>7} {'total':>11} {'self':>11} "
        f"{'achieved':>9} {'%roof':>7}",
    ]
    for child in tracer.root.children.values():
        _render(child, 0, lines, machine)
    lines.extend(_footer())
    return "\n".join(lines)
