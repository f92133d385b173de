"""Fig. 10: model-augmented kernel runtimes.

The paper's automated memory-bound analysis lists the worst-performing,
most important kernels with their % of peak memory bandwidth; the
Smagorinsky-diffusion kernel stands out (and is fixed in Sec. VI-C1).
After tuning, "most of the shown kernels are above 60% peak". Ours ranks
the kernels of the four programs one rank's step runs
(``DynamicalCore.step_graphs``).
"""

import pytest

from repro import obs
from repro.machine import P100
from repro.core.perfmodel import bound_report, format_bound_report
from repro.core.pipeline import optimize_sdfg_locally
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore


def _build(npx=96, npz=80):
    cfg = DynamicalCoreConfig(npx=npx, npz=npz, layout=1, k_split=1,
                              n_split=2)
    core = DynamicalCore(
        cfg, comm=LocalComm(cfg.total_ranks, owned_ranks=(0,))
    )
    return core.step_graphs()


def test_fig10_kernel_bounds(report, benchmark):
    graphs = benchmark.pedantic(_build, rounds=1, iterations=1)
    rows_before = bound_report(graphs, P100, top=10)
    report("Fig. 10 — worst-performing, most important kernels (initial)")
    report(format_bound_report(rows_before))
    # the untuned graph has kernels well below peak bandwidth
    assert min(r.utilization for r in rows_before) < 0.5

    for sdfg in graphs:
        optimize_sdfg_locally(sdfg, P100)
    rows_after = bound_report(graphs, P100, top=10)
    report()
    report("after cycle-1 optimization (paper: most kernels above 60%):")
    report(format_bound_report(rows_after))
    above_60 = sum(1 for r in rows_after if r.utilization > 0.60)
    report(f"{above_60}/{len(rows_after)} top kernels above 60% of peak")
    assert above_60 >= len(rows_after) // 2
    # importance ranking: rows sorted by aggregate runtime
    totals = [r.total_runtime for r in rows_after]
    assert totals == sorted(totals, reverse=True)


def _kernel_spans(span, into):
    """(seconds, calls) per kernel label over every ``kernel.*`` span
    under ``span``."""
    for name, child in span.children.items():
        kind, _, label = name.partition(".")
        if kind == "kernel":
            t, n = into.get(label, (0.0, 0))
            into[label] = (t + child.total_seconds, n + child.count)
        _kernel_spans(child, into)
    return into


def test_fig10_measured_runtimes_feed_report(report, benchmark):
    """The workflow combines modeling with measured runtimes: the report
    accepts the per-kernel times of the programs a step runs, read off
    the ``kernel.*`` spans of steps taken with tracing on."""
    cfg = DynamicalCoreConfig(npx=24, npz=16, layout=1, k_split=1, n_split=1)
    core = DynamicalCore(cfg)
    core.prepare()

    tracer = obs.get_tracer()
    enabled = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        benchmark(core.step_dynamics)
    finally:
        tracer.enabled = enabled
    times = _kernel_spans(tracer.root, {})
    tracer.reset()
    measured = {
        label: total / max(count, 1) for label, (total, count) in times.items()
    }
    assert measured
    rows = bound_report(core.step_graphs(), P100, measured=measured, top=8)
    report("Fig. 10 with measured (traced) runtimes:")
    report(format_bound_report(rows))
    assert all(r.runtime > 0 for r in rows)
