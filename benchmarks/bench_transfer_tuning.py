"""Sec. VI-B: transfer-tuning statistics on the FVT module.

Paper: the FVT cutouts are its 127 SDFG states; a cutout has at most 48
configurations, 1,272 in total, searched exhaustively; the best M=2 OTF
configurations and the single best SGF configuration per cutout transfer
20 OTF + 583 SGF applications to the full dynamical core; phase 1 took
2:42 h and phase 2 8:24 h on a Piz Daint node; the final step is a 3.47%
speedup (Table III: 4.77 → 4.61 s).

Ours tunes the cutouts of the four programs one rank's step runs
(``DynamicalCore.step_graphs``) and transfers the patterns to each of
them. Our graphs are smaller, so counts differ; the reproduced claims are the
mechanics (exhaustive per-cutout search, label-based patterns, many more
transferred applications than tuned cutouts) and a measurable end-to-end
improvement, in feasible time.
"""

import pytest

from repro.machine import P100
from repro.core.perfmodel import model_sdfg_time
from repro.core.pipeline import OptimizationPipeline, PipelineOptions
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore


def _graphs(**shape):
    cfg = DynamicalCoreConfig(layout=1, k_split=1, **shape)
    core = DynamicalCore(
        cfg, comm=LocalComm(cfg.total_ranks, owned_ranks=(0,))
    )
    return core.step_graphs()


def _run():
    graphs = _graphs(npx=48, npz=32, n_split=4)
    pipe = OptimizationPipeline(PipelineOptions(machine=P100))
    before = sum(model_sdfg_time(g, P100) for g in graphs)
    stats = pipe.transfer_tune(graphs)
    after = sum(model_sdfg_time(g, P100) for g in graphs)
    return before, after, stats


def test_transfer_tuning_statistics(report, benchmark):
    before, after, stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    report("Sec. VI-B — transfer tuning on the orchestrated dycore")
    report(f"{'':<34} {'ours':>10} {'paper (FVT)':>12}")
    report(f"{'cutouts tuned':<34} {stats['cutouts']:>10} {127:>12}")
    report(f"{'configurations evaluated':<34} {stats['configurations']:>10} {1272:>12}")
    report(f"{'patterns extracted':<34} {stats['patterns']:>10} {'M=2/cutout':>12}")
    report(f"{'transferred applications':<34} {stats['applied']:>10} {20 + 583:>12}")
    report(f"{'phase 1 [s]':<34} {stats['phase1_seconds']:>10.1f} {'2:42 h':>12}")
    report(f"{'phase 2 [s]':<34} {stats['phase2_seconds']:>10.1f} {'8:24 h':>12}")
    improvement = (before - after) / before
    report(f"modeled end-to-end improvement: {100 * improvement:.2f}% "
           f"(paper: 3.47%)")
    # mechanics claims
    assert stats["cutouts"] >= 2
    assert stats["configurations"] > stats["cutouts"]
    assert stats["applied"] >= stats["patterns"]  # patterns recur
    assert improvement > 0.0
    # "auto-tuning the entire dynamical core can run in feasible time"
    assert stats["phase1_seconds"] + stats["phase2_seconds"] < 600


def test_pattern_descriptions_are_label_based(report, benchmark):
    """Configurations are described by stencil labels + transformation
    type (the paper's transferable description)."""
    from repro.core.autotune import make_evaluator, tune_cutout
    from repro.core.transfer import extract_patterns
    from repro.sdfg.cutout import state_cutouts

    graphs = benchmark.pedantic(
        lambda: _graphs(npx=24, npz=8, n_split=1), rounds=1, iterations=1
    )
    cutouts = [c for sdfg in graphs for c in state_cutouts(sdfg)][:4]
    configs = []
    for c in cutouts:
        cfgs, _ = tune_cutout(c, make_evaluator(machine=P100))
        configs.extend(cfgs)
    patterns = extract_patterns(configs)
    report(f"{len(patterns)} patterns extracted from {len(cutouts)} cutouts:")
    for p in patterns[:10]:
        report(f"  {p}")
    for p in patterns:
        assert p.xform in ("otf", "sgf")
        assert all(isinstance(lbl, str) for grp in p.labels for lbl in grp)
