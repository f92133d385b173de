"""Rendering of recorded span trees: text tables and JSON export.

The text report is the human-facing view — an indented span tree with
call counts, total/self wall time, and (for spans carrying a ``bytes``
attribute) achieved GB/s plus the fraction of the observed machine's
roofline bandwidth. The JSON export is the machine-facing view consumed
by the benchmarks.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.machine import MachineModel
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
    """Serialize a tracer's full span tree (default tracer if omitted)."""
    tracer = tracer or get_tracer()
    payload = {
        "tracer": tracer.name,
        "machine": observed_machine().name,
        "spans": [snapshot(c) for c in tracer.root.children.values()],
        "runtime": _runtime_summary(),
        "ensemble": _ensemble_summary(),
        "resilience": _resilience_summary(),
        "serving": _serving_summary(),
    }
    return json.dumps(payload, indent=indent)


def _runtime_summary() -> Dict[str, Dict[str, object]]:
    # imported lazily: report must stay loadable without pulling the
    # runtime/codegen stack in
    from repro.runtime import runtime_summary

    return runtime_summary()


def _resilience_summary() -> Dict[str, object]:
    from repro.resilience import summary

    return summary()


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
    lines.extend(_runtime_lines())
    lines.extend(_ensemble_lines())
    lines.extend(_resilience_lines())
    lines.extend(_serving_lines())
    return "\n".join(lines)


def _runtime_lines() -> List[str]:
    """Footer summarizing the runtime memory subsystem, shown once either
    the pool or the compile cache has been exercised."""
    rt = _runtime_summary()
    pool = rt["pool"]
    cache = rt["compile_cache"]
    lines: List[str] = []
    if pool["checkouts"]:
        lines.append(
            f"buffer pool: {pool['checkouts']} checkouts, "
            f"{pool['reuse_hits']} reuse hits, "
            f"{pool['allocated_bytes'] / 1e6:.1f} MB allocated, "
            f"{pool['alloc_bytes_avoided'] / 1e6:.1f} MB avoided, "
            f"high water {pool['high_water_bytes'] / 1e6:.1f} MB in "
            f"{pool['peak_slabs']} slabs "
            f"(largest {pool['largest_slab_bytes'] / 1e6:.1f} MB, "
            f"{pool['retirements']} retired)"
        )
    if cache["hits"] or cache["misses"]:
        by = cache.get("by_backend") or {}
        per_backend = ""
        if len(by) > 1 or (by and "numpy" not in by):
            per_backend = " [" + ", ".join(
                f"{b}: {c['hits']}h/{c['misses']}m"
                for b, c in sorted(by.items())
            ) + "]"
        lines.append(
            f"compile cache: {cache['hits']} hits / "
            f"{cache['misses']} misses "
            f"(rate {100 * cache['hit_rate']:.0f}%), "
            f"{cache['entries']} programs cached, "
            f"{cache['bytes_saved'] / 1e6:.1f} MB working-set reuse"
            f"{per_backend}"
        )
    if cache["program_traces"] or cache["program_binds"]:
        lines.append(
            f"orchestration: {cache['program_traces']} programs traced, "
            f"{cache['program_binds']} bound to "
            f"{cache['templates']} templates"
        )
    jt = rt.get("jit", {})
    if jt.get("kernels_requested"):
        lines.append(
            f"jit: {jt['engine']} engine, {jt['kernels_requested']} kernels "
            f"requested = {jt['kernels_built']} built + "
            f"{jt['kernels_reused']} reused; {jt['compiles']} translation "
            f"units compiled in {jt['builds']} builds "
            f"({jt['compile_seconds']:.3f}s blocked), "
            f"{jt['disk_hits']} objects opened from disk"
        )
    if cache["program_traces"] or cache.get("programs_restored"):
        lines.append(
            f"programs: {cache['programs_restored']} restored / "
            f"{cache['program_traces']} traced "
            f"({cache['programs_stored']} stored, "
            f"{cache['programs_unpersistable']} memory-only) / "
            f"{cache['programs_stale']} stale records, "
            f"{cache['restore_bytes'] / 1e3:.0f} kB read in "
            f"{cache['restore_seconds']:.3f}s"
        )
    rk = rt.get("ranks", {})
    if rk.get("sections"):
        lines.append(
            f"rank executor: {rk['workers']} workers, "
            f"{rk['sections']} parallel sections / "
            f"{rk['tasks']} rank tasks, "
            f"{rk['section_seconds']:.3f}s inside sections"
        )
    if rk.get("exchanges"):
        eff = rk.get("overlap_efficiency")
        eff_cell = f"{100 * eff:.0f}%" if eff is not None else "n/a"
        lines.append(
            f"halo overlap: {eff_cell} efficiency "
            f"({rk['hidden_seconds']:.3f}s hidden, "
            f"{rk['exposed_seconds']:.3f}s exposed, "
            f"{rk['exchanges']} split exchanges)"
        )
    pr = rt.get("procs", {})
    if pr.get("launches"):
        lines.append(
            f"process executor: {pr['launches']} launch(es), "
            f"{pr['workers']} worker(s) / {pr['ranks']} ranks, "
            f"{pr['worker_reports_merged']} worker reports merged, "
            f"{pr['messages']} shm messages "
            f"({pr['bytes'] / 1e6:.1f} MB); largest worker "
            f"{pr['worker_peak_rss_mb']:.0f} MiB RSS, "
            f"{pr['worker_arena_high_water_mb']:.1f} MiB arena, "
            f"{pr['worker_threads']} thread(s)"
        )
    return lines


def _ensemble_lines() -> List[str]:
    """Footer summarizing ensemble amortization, shown once the
    experiment facade has driven at least one run."""
    es = _ensemble_summary()
    if not es["runs"]:
        return []
    rate = es["compile_amortization"]
    rate_cell = f"{100 * rate:.0f}%" if rate is not None else "n/a"
    return [
        f"ensemble: {es['runs']} run(s), {es['members']} member(s), "
        f"{es['member_steps']} member-steps in {es['seconds']:.3f}s; "
        f"amortized {es['grid_builds_avoided']} grid builds, "
        f"compile cache {es['compile_hits']} hits / "
        f"{es['compile_misses']} misses ({rate_cell}), "
        f"pool reuse {es['pool_reuse_hits']}; "
        f"engines alive {es['engines_alive']}"
    ]


def _ensemble_summary() -> Dict[str, object]:
    from repro.run import metrics

    return metrics.summary()


def _serving_summary() -> Optional[Dict[str, object]]:
    # lazy + tolerant: the report must stay renderable in a process
    # that never imported the serving layer
    import sys

    serve = sys.modules.get("repro.serve")
    if serve is None:
        return None
    return serve.serving_summary()


def _serving_lines() -> List[str]:
    """Footer summarizing forecast serving, shown once any
    :class:`~repro.serve.ForecastService` has handled a request."""
    sv = _serving_summary()
    if not sv:
        return []

    def ms(value) -> str:
        return f"{1e3 * value:.1f}ms" if value is not None else "n/a"

    lines = [
        f"serving: {sv['submitted']} submitted, "
        f"{sv['completed']} completed, {sv['shed']} shed, "
        f"{sv['deadline_exceeded']} deadline-exceeded, "
        f"{sv['cancelled']} cancelled, {sv['failed']} failed; "
        f"latency p50 {ms(sv['latency']['p50'])} / "
        f"p99 {ms(sv['latency']['p99'])}, "
        f"queue wait p50 {ms(sv['queue_wait']['p50'])}"
    ]
    cache = sv["cache"]
    ratio = cache.get("hit_ratio")
    ratio_cell = f"{100 * ratio:.0f}%" if ratio is not None else "n/a"
    pack_ratio = cache.get("pack_ratio")
    packing = f" ({pack_ratio:.2f}x)" if pack_ratio is not None else ""
    lines.append(
        f"serving slo: {sv['retries']} retries, "
        f"{sv['degraded']} degraded, "
        f"breaker {sv['breakers']['trips']} trips / "
        f"{sv['breakers']['probes']} probes / "
        f"{sv['breakers']['recoveries']} recoveries; "
        f"cache {cache['hits']} hits / {cache['warm_hits']} warm / "
        f"{cache['misses']} misses (hit ratio {ratio_cell}), "
        f"{sv['steps_saved']} steps saved; "
        f"{cache['entries']} states held in "
        f"{cache['bytes'] / 2 ** 20:.1f} MiB packed of "
        f"{cache['raw_bytes'] / 2 ** 20:.1f} MiB{packing}"
    )
    return lines


def _resilience_lines() -> List[str]:
    """Footer summarizing recovery activity, shown once any fault was
    injected or any recovery action taken."""
    rs = _resilience_summary()
    counters = rs["counters"]
    injected = rs["chaos"]["injected_total"]
    if not injected and not any(counters.values()):
        return []
    lines: List[str] = []
    if injected:
        by_site = ", ".join(
            f"{site}={n}" for site, n in sorted(rs["chaos"]["injected"].items())
        )
        lines.append(
            f"chaos: {injected} fault(s) injected "
            f"(seed {rs['chaos']['seed']}: {by_site})"
        )
    shown = [
        (name, counters[name])
        for name in (
            "guard_trips", "rollbacks", "retries", "fallbacks",
            "halo_timeouts", "halo_redeliveries", "orphaned_messages",
            "checkpoints_saved", "checkpoints_restored",
        )
        if counters.get(name)
    ]
    if shown:
        lines.append(
            "resilience: "
            + ", ".join(f"{n} {name}" for name, n in shown)
        )
    return lines
