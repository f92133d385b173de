"""Workloads and metrics of the benchmark, by name.

``BENCHMARK.json`` at the repository root states the same names, units
and bounds for the driver; ``tests/test_spec.py`` holds the two together.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

SCENARIO = "baroclinic_wave"

#: name -> what one process of the workload does.
#:   kind       step: a resident driver stepped one step at a time
#:              run: whole ``run()`` calls; serve: a ForecastService
#:   npx, npz   the configuration (the scenario's default is c24 L10)
#:   processes  fresh Python processes per run (each pays set-up once)
#:   setup_only further processes that end when set-up is over
#:   share      part of ``--seconds`` the timed loop of the workload gets
#:              (run_short spends the rest of its time compiling C)
#:   nominal_op_s, min_ops
#:              a process times ``max(min_ops, round(window / nominal_op_s))``
#:              operations, so the number of operations (and with it
#:              memory growth and every exact counter) follows from
#:              ``--seconds`` alone and not from how fast the host was
WORKLOADS: Dict[str, Dict[str, object]] = {
    "step_small": {
        "kind": "step", "npx": 24, "npz": 10, "processes": 3, "share": 1.0,
        "nominal_op_s": 0.07, "min_ops": 3,
        "why": "dispatch-bound: a c24 L10 step is mostly program dispatch "
               "and glue, so orchestration, pool and driver changes show "
               "here and kernel changes barely do",
    },
    "step_large": {
        "kind": "step", "npx": 48, "npz": 24, "processes": 2, "share": 1.0,
        "nominal_op_s": 0.5, "min_ops": 3,
        "why": "kernel-bound: at c48 L24 the compiled kernels dominate the "
               "step, so codegen and kernel changes show here and dispatch "
               "changes barely do",
    },
    "run_short": {
        "kind": "run", "npx": 24, "npz": 10, "processes": 2, "share": 0.5,
        "nominal_op_s": 0.9, "min_ops": 2,
        "steps": 2, "executor": None, "workers": None, "cold": True,
        "why": "build-bound and the only cold start: each process begins "
               "with an empty JIT directory, then repeats a 2-step run() "
               "that rebuilds every orchestrated program",
    },
    "run_procs": {
        "kind": "run", "npx": 48, "npz": 24, "processes": 2, "share": 1.0,
        "nominal_op_s": 2.3, "min_ops": 1,
        "steps": 3, "executor": "processes", "workers": 2, "cold": False,
        "why": "the halo layer over shared memory: run() with two worker "
               "processes pays launch, replica build and collection on "
               "every call, which the in-process workloads never do",
    },
    "serve_mix": {
        # one process: before anything is timed it has to fill the
        # service's cache, which takes as long as the timed epochs. Two
        # more processes stop at the first response, so that set-up is
        # timed three times a run here too.
        "kind": "serve", "npx": 24, "npz": 10, "processes": 1, "share": 0.85,
        "setup_only": 2,
        # the operation timed is one epoch of ten requests
        "nominal_op_s": 1.4, "min_ops": 2,
        "why": "the request path: two closed-loop clients send a seeded mix "
               "of cache hits, warm starts and misses, so members churn "
               "through one engine instead of staying resident",
    },
}

#: (name, unit, better, bound): measured untraced, on every workload.
#: ``setup_s`` is there because the driver's contract names it, with the
#: largest bound the contract allows; no timing holds a bound of 0.10 on
#: the reference host (README, "Why no timing is gated"), so the others
#: are the first rows of the per-layer table.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

#: the timings of the operations a user calls, by workload kind:
#: measured untraced and pooled like the end-to-end metrics, reported
#: with the per-layer metrics because they have no bound
TIMINGS: Dict[str, Tuple[str, ...]] = {
    "step": ("step_s",),
    "run": ("run_s",),
    "serve": ("request_p50_s", "request_p95_s", "requests_per_s"),
}

#: the six kernels the per-kernel rows follow
KERNEL_LABELS = (
    "xppm_flux_c0", "yppm_flux_c0", "remap_layer_c0",
    "precompute_coefficients_c1", "pressure_logs_c0",
    "transverse_update_y_c0",
)

#: (name, unit, better): one row per layer quantity; a workload that
#: does not exercise a layer reports 0 for it
PER_LAYER: List[Tuple[str, str, str]] = [
    ("step_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("request_p50_s", "s", "lower"),
    ("request_p95_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("orchestration.dispatch_self_s", "s", "lower"),
    ("orchestration.build_s", "s", "lower"),
    ("orchestration.builds", "count", "lower"),
    ("sdfg.compile_s", "s", "lower"),
    ("runtime.compile_cache.hits", "count", "higher"),
    ("runtime.compile_cache.misses", "count", "lower"),
    ("runtime.jit.compile_s", "s", "lower"),
    ("runtime.jit.compiles", "count", "lower"),
    ("runtime.jit.disk_hits", "count", "higher"),
    ("sdfg.kernel_s", "s", "lower"),
    ("sdfg.kernel_calls", "count", "lower"),
    *[(f"sdfg.kernel.{label}.s", "s", "lower") for label in KERNEL_LABELS],
    *[(f"sdfg.kernel.{label}.gbs", "GB/s", "higher")
      for label in KERNEL_LABELS],
    ("sdfg.fvtp2d_call_s", "s", "lower"),
    ("sdfg.fvtp2d_gbs", "GB/s", "higher"),
    ("host.copy_gbs", "GB/s", "higher"),
    ("host.noise_ratio", "ratio", "lower"),
    ("fv3.halo.exchange_s", "s", "lower"),
    ("fv3.halo.rotate_s", "s", "lower"),
    ("fv3.halo.messages", "count", "lower"),
    ("fv3.halo.bytes", "B", "lower"),
    ("fv3.halo.update_vector_s", "s", "lower"),
    ("fv3.glue_self_s", "s", "lower"),
    ("runtime.pool.checkouts_per_step", "count", "lower"),
    ("runtime.pool.allocations_per_step", "count", "lower"),
    ("runtime.pool.high_water_mb", "MiB", "lower"),
    ("run.build_grids_s", "s", "lower"),
    ("run.build_core_s", "s", "lower"),
    ("run.driver.swap_self_s", "s", "lower"),
    ("run.driver.add_member_s", "s", "lower"),
    ("run.driver.snapshot_member_s", "s", "lower"),
    ("run.driver.member_report_s", "s", "lower"),
    ("runtime.procs.step_s", "s", "lower"),
    ("runtime.procs.launch_collect_s", "s", "lower"),
    ("runtime.procs.messages", "count", "lower"),
    ("runtime.procs.bytes", "B", "lower"),
    ("runtime.procs.speedup", "ratio", "higher"),
    ("runtime.ranks.threads_step_s", "s", "lower"),
    ("serve.queue_wait_p50_s", "s", "lower"),
    ("serve.phase_warm_p50_s", "s", "lower"),
    ("serve.phase_steps_p50_s", "s", "lower"),
    ("serve.overhead_p50_s", "s", "lower"),
    ("serve.hit_p50_s", "s", "lower"),
    ("serve.hit_share", "ratio", "higher"),
    ("serve.warm_share", "ratio", "higher"),
    ("serve.batched_share", "ratio", "higher"),
    ("serve.steps_computed", "count", "lower"),
    ("serve.steps_saved", "count", "higher"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.cache_entries", "count", "higher"),
    ("resilience.guard_overhead_ratio", "ratio", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
]

#: counters that must repeat exactly between two runs of one commit
EXACT_COUNTERS = (
    "orchestration.builds", "fv3.halo.messages", "fv3.halo.bytes",
    "sdfg.kernel_calls", "runtime.jit.compiles", "serve.cache_evictions",
)


def empty_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: the value of a layer a workload does
    not exercise."""
    return {name: 0.0 for name, _, _ in PER_LAYER}
