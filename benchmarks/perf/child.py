"""One benchmark process: ``python -m benchmarks.perf.child '<task json>'``.

The parent (``cli.py``) starts every measurement in a fresh interpreter
with the fixed environment already set, so ``import repro`` below is part
of the set-up time it measures. A task names a workload and a mode:

- ``measure``    the timed (or, with ``REPRO_TRACE=1``, traced) operations
- ``reference``  the untimed process whose outputs the timed ones must equal
- ``probes``     direct calls into single layers (source A of the layer table)
- ``prime``      fill the JIT directory so that later processes compile nothing

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import resource
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from benchmarks.perf import env, spec, stream
from benchmarks.perf.spans import Recorder, sum_attr, sum_by_prefix, walk

SCENARIO = spec.SCENARIO
MEMBER = 1          # the perturbed member --seed drives
#: responses of a serve_mix process held against a direct run()
SERVE_SAMPLES = 5


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _config(wl: Dict[str, object]):
    from repro.scenarios import get_scenario

    base = get_scenario(SCENARIO).default_config()
    return dataclasses.replace(base, npx=wl["npx"], npz=wl["npz"])


def _digest(rank_fields) -> str:
    """SHA-256 over every prognostic array of every rank. Accepts the
    ``RankFields`` of a ``MemberResult`` or a ``Snapshot``."""
    import numpy as np

    fields = ("u", "v", "w", "pt", "delp", "delz")
    h = hashlib.sha256()
    if hasattr(rank_fields, "arrays"):           # a Snapshot
        ranks = [
            ([arrays[f] for f in fields], tracers)
            for arrays, tracers in zip(rank_fields.arrays,
                                       rank_fields.tracers)
        ]
    else:
        ranks = [
            ([getattr(s, f) for f in fields], s.tracers) for s in rank_fields
        ]
    for arrays, tracers in ranks:
        for arr in list(arrays) + list(tracers):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _report_key(step: int, summary: Dict[str, float], mass_drift: float,
                tracer_drift: Optional[float]) -> str:
    """The comparable part of a served response / a direct run: floats
    print by ``repr``, so equal strings mean equal bits."""
    return json.dumps(
        [int(step), {k: summary[k] for k in sorted(summary)},
         mass_drift, tracer_drift]
    )


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _counters() -> Dict[str, object]:
    """Source C: the program's exact counters."""
    from repro.runtime import runtime_summary

    return runtime_summary()


def _guard_environment() -> None:
    """Refuse to report a number taken on another engine or backend: a
    missing compiler makes the program fall back to NumPy emission with
    only a warning."""
    from repro.runtime import compile_cache, jit

    if jit.engine_name() != "cgen":
        raise SystemExit(f"environment guard: JIT engine is "
                         f"{jit.engine_name()!r}, not 'cgen'")
    # counters of worker processes are merged into these, so a run over
    # two workers is guarded by the work its workers did
    loaded = jit.stats()
    if not (loaded["compiles"] + loaded["disk_hits"]):
        raise SystemExit("environment guard: no kernel was compiled or "
                         "loaded by the C engine")
    work = {
        backend: row["hits"] + row["misses"]
        for backend, row in compile_cache.stats()["by_backend"].items()
    }
    if not work.get("compiled") or any(
            n for b, n in work.items() if b != "compiled"):
        raise SystemExit("environment guard: programs were compiled for "
                         f"backends {work}, not for 'compiled' alone")


def _tracing() -> bool:
    from repro import obs

    return obs.enabled()


def _layer_raw(ops: int, model_steps: int) -> Dict[str, object]:
    """Source B: the program's span tree, summed by layer. Only called
    in a traced process, after ``obs.reset()`` and the measured loop."""
    from repro import obs

    tree = json.loads(obs.to_json(indent=None))
    spans = tree["spans"]
    kernels: Dict[str, Dict[str, float]] = {}
    for node in walk(spans):
        if node["name"].startswith("kernel."):
            row = kernels.setdefault(
                node["name"][len("kernel."):],
                {"seconds": 0.0, "calls": 0, "bytes": 0},
            )
            row["seconds"] += node["total_seconds"]
            row["calls"] += node["count"]
            row["bytes"] += node["attrs"].get("bytes", 0)
    build_s, builds = sum_by_prefix(spans, ("orchestrate.build",), False)
    compile_s, _ = sum_by_prefix(spans, ("sdfg.compile",), False)
    exchange_s, _ = sum_by_prefix(spans, ("halo.exchange",), False)
    return {
        "ops": ops,
        "model_steps": model_steps,
        "dispatch_self_s": sum_by_prefix(spans, ("program.",), True)[0],
        "build_s": build_s,
        "builds": builds,
        "compile_s": compile_s,
        "kernels": kernels,
        "halo_exchange_s": exchange_s,
        "halo_messages": sum_attr(spans, "halo.exchange", "messages"),
        "halo_bytes": sum_attr(spans, "halo.exchange", "bytes"),
        "halo_rotate_s": sum_by_prefix(
            spans, ("halo.rotate_vectors",), False)[0],
        "glue_self_s": sum_by_prefix(
            spans, ("dyncore.", "acoustics", "stencil.", "exec."), True)[0],
        "swap_self_s": sum_by_prefix(
            spans, ("member[", "ensemble."), True)[0],
        "tree": tree,
    }


def _start_layers() -> Dict[str, object]:
    """Forget warm-up: drop recorded spans, note the counters."""
    from repro import obs

    if obs.enabled():
        obs.reset()
    return _counters()


def _setup_seconds(task) -> float:
    """Set-up ends when the first operation has returned: wall time
    since the parent started this process."""
    return time.time() - task["spawned_at"]


def _driver(wl, seed: int, **kwargs):
    """The resident single-member driver every step-wise leg uses."""
    from repro.run import EnsembleDriver

    kwargs.setdefault("executor", "sequential")
    return EnsembleDriver(SCENARIO, _config(wl), members=(MEMBER,),
                          seed=seed, diagnostics=False, **kwargs)


# ---------------------------------------------------------------------------
# measure: a resident driver, one step at a time
# ---------------------------------------------------------------------------
def measure_step(task, wl, rec: Recorder) -> Dict[str, object]:
    with rec.span("setup"):
        with rec.span("import repro"):
            import repro.run  # noqa: F401  (timed: part of set-up)
        with rec.span("EnsembleDriver()"):
            driver = _driver(wl, task["seed"])
        with rec.span("first step"):
            driver.step(1)
    out = {"setup_s": _setup_seconds(task)}
    # the state the reference process is held against is the one after
    # step 2, so that one step past the warm-up is covered
    driver.step(1)
    digest = _digest(driver.snapshot_member(MEMBER))
    comm = driver.engine.halo.comm
    comm.reset_log()
    before = _start_layers()
    ops = task["ops"]
    for op in range(ops):
        with rec.span("EnsembleDriver.step", op=op):
            driver.step(1)
    sizes = comm.message_sizes()
    out.update({
        "ops": rec.durations("EnsembleDriver.step"),
        "attempted": ops + 2,
        "failed": 0,
        "check": {"digest": digest},
        "counters_before": before,
        "counters": _counters(),
        "comm": {"messages": len(sizes), "bytes": sum(sizes)},
        "model_steps": ops,
    })
    if _tracing():
        out["layers"] = _layer_raw(ops, ops)
    driver.close()
    return out


# ---------------------------------------------------------------------------
# measure: whole run() calls
# ---------------------------------------------------------------------------
def _run_kwargs(task, wl) -> Dict[str, object]:
    kwargs = {"steps": wl["steps"], "members": (MEMBER,),
              "seed": task["seed"]}
    if wl["executor"]:
        kwargs.update(executor=wl["executor"], workers=wl["workers"])
    return kwargs


def measure_run(task, wl, rec: Recorder) -> Dict[str, object]:
    with rec.span("setup"):
        with rec.span("import repro"):
            from repro.run import run
        config, kwargs = _config(wl), _run_kwargs(task, wl)
        with rec.span("first run()"):
            result = run(SCENARIO, config, **kwargs)
    out = {"setup_s": _setup_seconds(task)}
    digests = [_digest(result.member(MEMBER).states)]
    failed = 0 if result.ok else 1
    before = _start_layers()
    model_seconds: List[float] = []
    ops = task["ops"]
    for op in range(ops):
        with rec.span("run()", op=op):
            result = run(SCENARIO, config, **kwargs)
        model_seconds.append(result.seconds)
        failed += 0 if result.ok else 1
        digests.append(_digest(result.member(MEMBER).states))
    out.update({
        "ops": rec.durations("run()"),
        "attempted": ops + 1,
        "failed": failed,
        "check": {"digest": digests[0],
                  "all_equal": len(set(digests)) == 1},
        "counters_before": before,
        "counters": _counters(),
        "model_seconds": model_seconds,
        "model_steps": ops * wl["steps"],
    })
    if _tracing():
        out["layers"] = _layer_raw(ops, ops * wl["steps"])
    return out


# ---------------------------------------------------------------------------
# measure: the forecast service under two closed-loop clients
# ---------------------------------------------------------------------------
def _drain(svc, requests, rec: Recorder, first_op: int, clients: int = 2):
    """Closed loop: each client sends its next request only when the
    previous one has been answered. Returns one record per request."""
    from repro.serve import ForecastRequest

    lock = threading.Lock()
    cursor = iter(enumerate(requests))
    records: List[Optional[Dict[str, object]]] = [None] * len(requests)

    def client() -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            index, planned = item
            sent = time.perf_counter()
            record = {"planned": planned.planned, "steps": planned.steps,
                      "seed": planned.seed, "member": planned.member}
            try:
                response = svc.submit(ForecastRequest(
                    SCENARIO, steps=planned.steps, seed=planned.seed,
                    member=planned.member,
                )).result(timeout=120.0)
            except Exception as exc:   # a failed or refused request
                record.update(latency=float("inf"), error=repr(exc))
            else:
                record.update(
                    latency=time.perf_counter() - sent,
                    cache=response.cache,
                    queue_wait=response.queue_wait,
                    phases=response.phases,
                    steps_computed=response.steps_computed,
                    key=_report_key(
                        response.step, response.report["summary"],
                        response.report["mass_drift"],
                        response.report.get("tracer_drift"),
                    ),
                )
            records[index] = record

    with rec.span("epoch", op=first_op):
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return records


def _sampled(seed: int, epochs) -> List[stream.PlannedRequest]:
    """The requests whose responses are held against a direct run():
    drawn from the first epoch, which every process answers and which
    holds hits, warm starts and misses of all leads."""
    return random.Random(f"sample-{seed}").sample(epochs[1], SERVE_SAMPLES)


def measure_serve(task, wl, rec: Recorder) -> Dict[str, object]:
    epochs = stream.make_stream(task["seed"], epochs=task["ops"])
    with rec.span("setup"):
        with rec.span("import repro"):
            from repro.serve import ForecastService, ServiceConfig
        with rec.span("ForecastService()"):
            svc = ForecastService(ServiceConfig(workers=2))
        with rec.span("first response"):
            prefill = _drain(svc, epochs[0][:1], rec, -1, clients=1)
    out = {"setup_s": _setup_seconds(task)}
    if task["ops"] == 0:
        # a process that only sets up (spec.py, "setup_only")
        svc.close()
        out.update(attempted=1, failed=sum(1 for r in prefill if "error" in r))
        return out
    # untimed: fill the state cache, so that the timed epochs evict
    prefill += _drain(svc, epochs[0][1:], rec, -1)
    before = _start_layers()
    summary_before = svc.summary()
    records: List[Dict[str, object]] = []
    ops = task["ops"]
    for op in range(ops):
        records += _drain(svc, epochs[1 + op], rec, op)
    summary = svc.summary()
    svc.close()
    epoch_s = rec.durations("epoch")[-ops:]
    wanted = {(r.seed, r.member, r.steps) for r in _sampled(
        task["seed"], epochs)}
    keys = {
        f"{r['seed']}/{r['member']}/{r['steps']}": r.get("key")
        for r in records
        if (r["seed"], r["member"], r["steps"]) in wanted
    }
    failed = sum(1 for r in prefill + records if "error" in r)
    service = {
        key: summary["requests"][key] - summary_before["requests"][key]
        for key in ("batched_requests", "steps_computed", "steps_saved")
    }
    service["cache_evictions"] = (summary["cache"]["evictions"]
                                  - summary_before["cache"]["evictions"])
    service["cache_entries"] = summary["cache"]["entries"]
    out.update({
        # one operation is one request of the mix: an epoch's wall time
        # over the ten requests it answers
        "ops": [s / stream.EPOCH_SIZE for s in epoch_s],
        "attempted": len(prefill) + len(records),
        "failed": failed,
        "check": {"keys": keys},
        "counters_before": before,
        "counters": _counters(),
        "requests": [
            {k: v for k, v in r.items() if k != "key"} for r in records
        ],
        "wall_s": sum(epoch_s),
        "service": service,
        "model_steps": service["steps_computed"],
    })
    if _tracing():
        out["layers"] = _layer_raw(len(records), out["model_steps"])
    return out


# ---------------------------------------------------------------------------
# reference: what the timed processes must reproduce
# ---------------------------------------------------------------------------
def reference(task, wl) -> Dict[str, object]:
    """step_*/run_short: the NumPy backend's state after step 2 (the
    parent starts this process with REPRO_BACKEND=numpy). run_procs: the
    sequential executor's state after the same steps. serve_mix: direct
    run() reports for the sampled requests."""
    from repro.run import run

    if wl["kind"] == "serve":
        epochs = stream.make_stream(task["seed"], epochs=1)
        keys = {}
        for req in _sampled(task["seed"], epochs):
            member = run(SCENARIO, steps=req.steps, members=(req.member,),
                         seed=req.seed).member(req.member)
            keys[f"{req.seed}/{req.member}/{req.steps}"] = _report_key(
                member.steps, member.summary, member.mass_drift,
                member.tracer_drift,
            )
        return {"check": {"keys": keys}}
    if wl["kind"] == "run" and wl["executor"]:
        kwargs = dict(_run_kwargs(task, wl), executor="sequential",
                      workers=None)
        run(SCENARIO, _config(wl), **kwargs)        # warm the caches
        result = run(SCENARIO, _config(wl), **kwargs)
        return {"check": {"digest": _digest(result.member(MEMBER).states)},
                "ok": result.ok, "seconds": result.seconds}
    driver = _driver(wl, task["seed"])
    driver.step(2)
    digest = _digest(driver.snapshot_member(MEMBER))
    driver.close()
    return {"check": {"digest": digest}}


# ---------------------------------------------------------------------------
# probes: direct calls into single layers
# ---------------------------------------------------------------------------
def _floor(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _probe_builds(task, wl, out) -> object:
    from repro.run import build_core, build_grids

    config = _config(wl)
    t0 = time.perf_counter()
    grids = build_grids(config)
    out["run.build_grids_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    core = build_core(SCENARIO, config, member=MEMBER, seed=task["seed"],
                      executor="sequential", grids=grids)
    out["run.build_core_s"] = time.perf_counter() - t0
    return core


def _probe_halo(core, out) -> None:
    u = [s.u for s in core.states]
    v = [s.v for s in core.states]
    core.halo.update_vector(u, v)
    out["fv3.halo.update_vector_s"] = _floor(
        lambda: core.halo.update_vector(u, v), 10)


def _probe_guards(task, wl, out, steps: int = 8) -> None:
    """Step time under the serving default (rollback guards) over the
    unguarded step time, the two drivers stepped alternately so that
    host drift hits both."""
    from repro.resilience import GuardConfig, ResilienceConfig

    def driver(resilience):
        d = _driver(wl, task["seed"], resilience=resilience)
        d.step(1)
        return d

    plain = driver(None)
    guarded = driver(ResilienceConfig(guard=GuardConfig(policy="rollback")))
    best = {"plain": float("inf"), "guarded": float("inf")}
    for _ in range(steps):
        for name, d in (("plain", plain), ("guarded", guarded)):
            t0 = time.perf_counter()
            d.step(1)
            best[name] = min(best[name], time.perf_counter() - t0)
    plain.close()
    guarded.close()
    out["resilience.guard_overhead_ratio"] = best["guarded"] / best["plain"]
    out["notes"]["guard_base_s"] = best["plain"]


def _probe_membership(task, wl, core, out) -> None:
    """The member operations a served request costs beside its steps."""
    from repro.run import EnsembleDriver, member_rng

    driver = EnsembleDriver(SCENARIO, _config(wl), members=(), engine=core,
                            diagnostics=False)
    best = {"add": float("inf"), "snapshot": float("inf"),
            "report": float("inf")}

    def timed(name, fn):
        t0 = time.perf_counter()
        fn()
        best[name] = min(best[name], time.perf_counter() - t0)

    for slot in range(1, 6):
        timed("add", lambda: driver.add_member(
            slot, rng=member_rng(task["seed"], slot)))
        driver.step_selected([slot], 1)
        timed("report", lambda: driver.member_report(slot))
        timed("snapshot", lambda: driver.snapshot_member(slot))
        driver.remove_member(slot)
    out["run.driver.add_member_s"] = best["add"]
    out["run.driver.snapshot_member_s"] = best["snapshot"]
    out["run.driver.member_report_s"] = best["report"]


def _probe_fvtp2d(out, n: int = 64, nk: int = 20) -> None:
    """The standalone transport operator of the legacy BENCH_PR3/PR8
    files, at their 64x64x20 size, as an orchestrated program."""
    import numpy as np

    from repro.fv3.corners import rank_corners
    from repro.fv3.grid import CubedSphereGrid
    from repro.fv3.partitioner import CubedSpherePartitioner
    from repro.fv3.stencils.fvtp2d import FiniteVolumeTransport
    from repro.sdfg.nodes import Kernel

    part = CubedSpherePartitioner(n, 1)
    grid = CubedSphereGrid.build(part, 0, 3)
    module = FiniteVolumeTransport(n, n, nk, grid.rarea,
                                   rank_corners(part, 0), 3)
    shape = (n + 6, n + 6, nk)
    q = np.random.default_rng(0).random(shape)
    cr = np.full(shape, 0.3)
    args = (q, cr, cr.copy(), cr.copy(), cr.copy(),
            np.zeros(shape), np.zeros(shape))
    program = module.__call__
    sdfg = program.build(*args)
    program.compile(backend="compiled")
    program(*args)
    seconds = _floor(lambda: program(*args), 15)
    moved = sum(
        node.moved_bytes(sdfg) for state in sdfg.states
        for node in state.nodes if isinstance(node, Kernel)
    )
    out["sdfg.fvtp2d_call_s"] = seconds
    out["sdfg.fvtp2d_gbs"] = moved / seconds / 1e9
    out["notes"]["fvtp2d_computed_bytes"] = moved


def _cache_bytes() -> int:
    """L2 + L3 of cpu0 as sysfs reports them (0 when it reports none)."""
    total = 0
    for level, text in env.cache_sizes().items():
        if level != "L1":
            scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
            total += int(text.rstrip("KM")) * scale
    return total


def _probe_copy(out) -> None:
    """NumPy copy bandwidth (read + write) on arrays four times the
    last-level caches, or as near to that as a quarter of the free
    memory allows; both sizes go in the notes."""
    import numpy as np

    caches = _cache_bytes() or (32 << 20)
    size = 4 * caches
    try:
        with open("/proc/meminfo") as fh:
            free = next(int(line.split()[1]) * 1024 for line in fh
                        if line.startswith("MemAvailable"))
        size = min(size, free // 8)
    except (OSError, StopIteration):
        pass
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    seconds = _floor(lambda: np.copyto(dst, src), 3)
    out["host.copy_gbs"] = 2 * src.nbytes / seconds / 1e9
    out["notes"]["copy_array_mib"] = src.nbytes / 2 ** 20
    out["notes"]["caches_mib"] = caches / 2 ** 20


def _probe_threads(task, wl, out, steps: int = 4) -> None:
    driver = _driver(wl, task["seed"], executor="threads", workers=2)
    driver.step(1)
    out["runtime.ranks.threads_step_s"] = _floor(
        lambda: driver.step(1), steps)
    driver.close()


def probes(task, wl) -> Dict[str, object]:
    """Which direct calls a workload's traced run adds: the layers that
    workload leans on (README, layer table)."""
    out: Dict[str, object] = {"notes": {}}
    name = task["workload"]
    if name == "run_procs":
        return out
    core = _probe_builds(task, wl, out)
    if name == "step_small":
        _probe_halo(core, out)
        _probe_guards(task, wl, out)
    elif name == "step_large":
        _probe_fvtp2d(out)
        _probe_copy(out)
        _probe_threads(task, wl, out)
    elif name == "serve_mix":
        _probe_membership(task, wl, core, out)
        _probe_guards(task, wl, out)
    core.finalize()
    if name != "run_short":         # its probes build, but run no kernel
        _guard_environment()
    return out


def prime(task, wl) -> Dict[str, object]:
    """Compile everything a primed workload will ask the JIT for."""
    driver = _driver(wl, 0)
    driver.step(1)
    driver.close()
    _guard_environment()
    return {}


# ---------------------------------------------------------------------------
def main(argv: List[str]) -> int:
    task = json.loads(argv[1])
    wl = spec.WORKLOADS[task["workload"]]
    mode = task["mode"]
    if mode == "measure":
        rec = Recorder(task["workload"])
        fn = {"step": measure_step, "run": measure_run,
              "serve": measure_serve}[wl["kind"]]
        out = fn(task, wl, rec)
        _guard_environment()
        # the process itself plus, under the process executor, the
        # largest of its workers
        out["rss_self_mb"] = _rss_mb(resource.RUSAGE_SELF)
        out["rss_child_mb"] = (
            _rss_mb(resource.RUSAGE_CHILDREN) if wl.get("executor") else 0.0)
        out["rss_mb"] = out["rss_self_mb"] + out["rss_child_mb"]
        out["spans"] = rec.spans
        import numpy

        out["numpy"] = numpy.__version__
    elif mode == "reference":
        out = reference(task, wl)
    elif mode == "probes":
        out = probes(task, wl)
    elif mode == "prime":
        out = prime(task, wl)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
