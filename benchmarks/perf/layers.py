"""The per-layer table of one workload. Its first rows are the timings
of the operations a user calls (``timings``), measured untraced; the
rest come from three sources.

A  direct calls the benchmark times itself (``child.probes`` and the
   spans around the timed operations)
B  the program's span tree in a separately traced process, self time
   summed by span-name prefix and divided by the model steps (or, for the
   build and compile rows, the ``run()`` calls) the tree covers
C  the program's exact counters

Every name of ``spec.PER_LAYER`` is present in the result; 0 means the
workload does not exercise that layer (or, for a ratio, that it was not
measured on this workload).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from benchmarks.perf import spec, stats

MIB = float(2 ** 20)


def _delta(child: Dict[str, object], group: str, key: str) -> float:
    """A counter's change over the measured loop of one process."""
    return (child["counters"][group][key]
            - child["counters_before"][group][key])


def _from_tree(out: Dict[str, float], traced: Dict[str, object],
               kind: str) -> None:
    raw = traced["layers"]
    steps = max(1, raw["model_steps"])
    calls = max(1, raw["ops"])
    out["orchestration.dispatch_self_s"] = raw["dispatch_self_s"] / steps
    out["sdfg.kernel_s"] = sum(
        k["seconds"] for k in raw["kernels"].values()) / steps
    out["sdfg.kernel_calls"] = sum(
        k["calls"] for k in raw["kernels"].values()) / steps
    for label in spec.KERNEL_LABELS:
        row = raw["kernels"].get(label)
        if row and row["seconds"] > 0:
            out[f"sdfg.kernel.{label}.s"] = row["seconds"] / steps
            # computed: perf-model bytes over measured time
            out[f"sdfg.kernel.{label}.gbs"] = (
                row["bytes"] / row["seconds"] / 1e9)
    out["fv3.halo.exchange_s"] = raw["halo_exchange_s"] / steps
    out["fv3.halo.rotate_s"] = raw["halo_rotate_s"] / steps
    out["fv3.halo.messages"] = raw["halo_messages"] / steps
    out["fv3.halo.bytes"] = raw["halo_bytes"] / steps
    out["fv3.glue_self_s"] = raw["glue_self_s"] / steps
    out["run.driver.swap_self_s"] = raw["swap_self_s"] / steps
    if kind == "run":
        # what every warm run() call rebuilds and recompiles
        out["orchestration.build_s"] = raw["build_s"] / calls
        out["orchestration.builds"] = raw["builds"] / calls
        out["sdfg.compile_s"] = raw["compile_s"] / calls
    else:
        out["orchestration.build_s"] = raw["build_s"]
        out["orchestration.builds"] = raw["builds"]
        out["sdfg.compile_s"] = raw["compile_s"]


def _from_counters(out: Dict[str, float], child: Dict[str, object],
                   kind: str) -> None:
    steps = max(1, child["model_steps"])
    per = max(1, len(child["ops"])) if kind == "run" else 1
    out["runtime.compile_cache.hits"] = _delta(
        child, "compile_cache", "hits") / per
    out["runtime.compile_cache.misses"] = _delta(
        child, "compile_cache", "misses") / per
    # JIT work is a whole-process quantity: the cold process of
    # run_short compiles, every primed one must only load from disk
    jit = child["counters"]["jit"]
    out["runtime.jit.compile_s"] = jit["compile_seconds"]
    out["runtime.jit.compiles"] = jit["compiles"]
    out["runtime.jit.disk_hits"] = jit["disk_hits"]
    out["runtime.pool.checkouts_per_step"] = _delta(
        child, "pool", "checkouts") / steps
    out["runtime.pool.allocations_per_step"] = _delta(
        child, "pool", "allocations") / steps
    out["runtime.pool.high_water_mb"] = (
        child["counters"]["pool"]["high_water_bytes"] / MIB)


def timings(kind: str, plain: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """The timings of the operations a user calls (``spec.TIMINGS``),
    pooled over the untraced processes of one workload."""
    if kind != "serve":
        ops = stats.pooled([c["ops"] for c in plain])
        return {spec.TIMINGS[kind][0]: stats.percentile(ops, 50)}
    # a failed or refused request has infinite latency
    latencies = [r["latency"] for c in plain for r in c["requests"]]
    done = sum(1 for latency in latencies if latency != float("inf"))
    return {
        "request_p50_s": stats.percentile(latencies, 50),
        "request_p95_s": stats.percentile(latencies, 95),
        "requests_per_s": done / sum(c["wall_s"] for c in plain),
    }


def _from_requests(out: Dict[str, float],
                   plain: Sequence[Dict[str, object]]) -> None:
    requests = [r for c in plain for r in c["requests"]]
    done = [r for r in requests if "error" not in r]
    computed = [r for r in done if r["steps_computed"] > 0]
    hits = [r for r in done if r["cache"] == "hit"]

    def p50(values: List[float]) -> float:
        return stats.percentile(values, 50) if values else 0.0

    out["serve.queue_wait_p50_s"] = p50([r["queue_wait"] for r in done])
    out["serve.phase_warm_p50_s"] = p50(
        [r["phases"].get("warm", 0.0) for r in computed])
    out["serve.phase_steps_p50_s"] = p50(
        [r["phases"].get("steps", 0.0) for r in computed])
    out["serve.overhead_p50_s"] = p50(
        [r["latency"] - r["phases"].get("steps", 0.0) for r in computed])
    out["serve.hit_p50_s"] = p50([r["latency"] for r in hits])
    out["serve.hit_share"] = len(hits) / len(requests)
    out["serve.warm_share"] = sum(
        1 for r in done if r["cache"] == "warm") / len(requests)
    # the service's own counters over the timed epochs of one process
    service = plain[0]["service"]
    out["serve.batched_share"] = (
        service["batched_requests"] / len(plain[0]["requests"]))
    for key in ("steps_computed", "steps_saved", "cache_evictions",
                "cache_entries"):
        out[f"serve.{key}"] = service[key]


def layer_table(
    workload: str,
    plain: Sequence[Dict[str, object]],
    traced: Optional[Dict[str, object]],
    probes: Dict[str, object],
    reference: Optional[Dict[str, object]],
) -> Dict[str, float]:
    """``plain`` are the untraced ``measure`` results, ``traced`` the
    traced one (None on run_procs, whose rows need no span tree)."""
    wl = spec.WORKLOADS[workload]
    kind = wl["kind"]
    out = spec.empty_layers()
    out.update(timings(kind, plain))
    first = plain[0]
    ops = stats.pooled([c["ops"] for c in plain])
    op_median = stats.percentile(ops, 50)
    out["host.noise_ratio"] = op_median / stats.floor_time(ops)
    _from_counters(out, first, kind)
    if traced is not None:
        _from_tree(out, traced, kind)
        out["obs.trace_overhead_ratio"] = (
            stats.percentile(traced["ops"], 50) / op_median)
    if kind == "step":
        # source C beside the tree's own count: the communicator's log
        out["fv3.halo.messages"] = (
            first["comm"]["messages"] / first["model_steps"])
        out["fv3.halo.bytes"] = first["comm"]["bytes"] / first["model_steps"]
    if kind == "serve":
        _from_requests(out, plain)
    if wl.get("executor") == "processes":
        steps = wl["steps"]
        seconds = stats.pooled([c["model_seconds"] for c in plain])
        model = stats.floor_time(seconds)
        out["runtime.procs.step_s"] = model / steps
        out["runtime.procs.launch_collect_s"] = min(
            wall - inner for wall, inner in zip(ops, seconds))
        calls = len(first["ops"])
        out["runtime.procs.messages"] = _delta(
            first, "procs", "messages") / calls
        out["runtime.procs.bytes"] = _delta(first, "procs", "bytes") / calls
        if reference and reference.get("seconds"):
            # base: the sequential executor's RunResult.seconds for the
            # same configuration and steps
            out["runtime.procs.speedup"] = reference["seconds"] / model
    for name, value in probes.items():
        if name != "notes":
            out[name] = value
    return out
