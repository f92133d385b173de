"""Table III: the dynamical-core optimization cycle.

Paper (6-node case study, step time):
  FORTRAN 16.36 s (1.00×) → GT4Py+DaCe default 10.87 (1.50×) →
  schedule heuristics 5.56 (2.94×) → local caching 5.45 (3.00×) →
  power operator 5.35 (3.06×) → region split 4.82 (3.39×) →
  Lagrangian reschedule 4.816 (3.40×) → region pruning 4.77 (3.43×) →
  transfer tuning (FVT) 4.61 (3.55×).

Reproduced on the eight programs one rank's step runs, each weighted by
its calls per step (``DynamicalCore.step_graphs``), at the paper's
per-node domain (192²×80 scaled down to keep the harness fast; the shape —
monotone improvement with heuristics the largest step and transfer tuning
a few percent — is domain-size independent above the occupancy knee).
"""

from collections import Counter

import pytest

from repro.machine import HASWELL, P100
from repro.core.pipeline import (
    OptimizationPipeline,
    PipelineOptions,
    format_table3,
)
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore

PAPER_SPEEDUPS = {
    "FORTRAN": 1.00,
    "GT4Py + DaCe (Default)": 1.50,
    "Stencil schedule heuristics": 2.94,
    "Local caching": 3.00,
    "Optimize power operator": 3.06,
    "Split regions to multiple kernels": 3.39,
    "Lagrangian contrib. reschedule": 3.40,
    "Region pruning": 3.43,
    "Transfer Tuning (FVT)": 3.55,
}


def _run_pipeline():
    cfg = DynamicalCoreConfig(
        npx=96, npz=80, layout=1, dt_atmos=225.0, k_split=1, n_split=3
    )
    core = DynamicalCore(
        cfg, comm=LocalComm(cfg.total_ranks, owned_ranks=(0,))
    )
    graphs = core.step_graphs()
    pipe = OptimizationPipeline(
        PipelineOptions(
            machine=P100,
            baseline_machine=HASWELL,
            transfer_states=("xppm", "yppm", "transverse", "scale_flux"),
        )
    )
    stages = pipe.run(graphs)
    return stages, dict(sum((Counter(g.stats()) for g in graphs), Counter()))


def test_table3_optimization_cycle(report, benchmark):
    stages, stats = benchmark.pedantic(_run_pipeline, rounds=1, iterations=1)
    report("Table III — Dynamical Core Optimization (modeled step time)")
    report(format_table3(stages))
    report()
    report(f"paper speedups for comparison: {PAPER_SPEEDUPS}")
    report(f"orchestrated programs: {stats}")

    by_name = {s.name: s for s in stages}
    fortran = by_name["FORTRAN"].modeled_time
    tuned = stages[-1].modeled_time
    default = by_name["GT4Py + DaCe (Default)"].modeled_time
    # shape claims:
    # 1. every optimization stage is monotone non-worsening
    times = [s.modeled_time for s in stages[1:]]
    for before, after in zip(times, times[1:]):
        assert after <= before * 1.001
    # 2. schedule heuristics are the single largest improvement
    heur = by_name["Stencil schedule heuristics"].modeled_time
    gains = {
        s.name: prev.modeled_time - s.modeled_time
        for prev, s in zip(stages[1:], stages[2:])
    }
    assert gains["Stencil schedule heuristics"] == max(gains.values())
    # 3. the tuned GPU beats the FORTRAN baseline by a factor in the
    #    paper's neighborhood (3.55x; accept 2-8x under the substitution)
    assert 2.0 < fortran / tuned < 8.0
    # 4. default-to-tuned improvement is significant (paper: 2.36x)
    assert default / tuned > 1.5
