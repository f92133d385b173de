"""Fig. 11: large-scale weak scaling, and the A100 portability result.

Paper: weak scaling from 54 nodes (15.6 km) to 2,400 nodes (2.28 km) with
192×192×80 points per node is nearly flat; Python FV3 is up to 3.92×
faster than FORTRAN at scale; 0.11 SYPD at 2.28 km. On JUWELS Booster
(A100), 54 ranks run 1.93 s/step — 2.42× faster than Piz Daint, with the
A100 offering 2.83× the memory bandwidth.

Substitution: per-node compute comes from the machine model over the
programs one rank's step runs (``DynamicalCore.step_graphs``);
communication comes from the LogGP Aries model fed with
the *exact* per-rank halo message sizes of our partitioner. Weak scaling
is flat by construction of the decomposition — the reproduced claims are
the per-node time, the speedup at scale, and the A100 ratio.
"""

import math
import pathlib

import pytest

from repro.machine import (
    A100,
    ARIES,
    HASWELL,
    JUWELS_BOOSTER,
    P100,
)
from repro.core.perfmodel import model_sdfg_time
from repro.core.pipeline import optimize_sdfg_locally
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.fv3.partitioner import CubedSpherePartitioner

#: nodes → approximate grid spacing [km] from the paper's figure
NODE_COUNTS = (54, 96, 216, 600, 1014, 1536, 2400)

#: where ``main`` writes by default: ignored by git, so a run never
#: rewrites the committed record
OUTPUT = (pathlib.Path(__file__).resolve().parent.parent / ".bench_build"
          / "fig11_measured.json")


def _per_node_times(npx=96, npz=80):
    """Modeled per-node compute time of one step, CPU vs tuned GPU."""
    cfg = DynamicalCoreConfig(npx=npx, npz=npz, layout=1, k_split=1,
                              n_split=5)
    core = DynamicalCore(
        cfg, comm=LocalComm(cfg.total_ranks, owned_ranks=(0,))
    )
    graphs = core.step_graphs()

    def step_time(machine):
        return sum(model_sdfg_time(g, machine) for g in graphs)

    t_cpu = step_time(HASWELL)
    for sdfg in graphs:
        optimize_sdfg_locally(sdfg, P100)
    return t_cpu, step_time(P100), step_time(A100), cfg


def _comm_time(nodes, cfg, network, exchanges_per_step=20):
    """Halo time per step from exact message volumes (nonblocking,
    partially overlapped)."""
    layout = max(1, int(math.sqrt(nodes / 6)))
    p = CubedSpherePartitioner(cfg.npx * layout, layout)
    msgs = p.boundary_message_bytes(n_halo=3, npz=cfg.npz, n_fields=3)
    t = network.halo_exchange_time(msgs) * exchanges_per_step
    return t * (1.0 - network.overlap_fraction)


def test_fig11_weak_scaling(report, benchmark):
    t_cpu, t_gpu, t_a100, cfg = benchmark.pedantic(
        _per_node_times, rounds=1, iterations=1
    )
    report("Fig. 11 — weak scaling projection (192²-class per-node domain)")
    report(f"{'nodes':>7} {'FORTRAN[s]':>11} {'Python GPU[s]':>14} {'speedup':>8}")
    speedups = []
    times = []
    for nodes in NODE_COUNTS:
        comm = _comm_time(nodes, cfg, ARIES)
        total_cpu = t_cpu + comm
        total_gpu = t_gpu + comm
        speedups.append(total_cpu / total_gpu)
        times.append(total_gpu)
        report(f"{nodes:>7} {total_cpu:>11.4f} {total_gpu:>14.4f} "
               f"{total_cpu / total_gpu:>7.2f}x")
    report(f"paper: up to 3.92x at scale; nearly perfect weak scaling")
    # weak scaling nearly flat: per-step time varies < 10% across scales
    assert max(times) / min(times) < 1.10
    # the GPU wins by a factor in the paper's neighborhood
    assert 2.0 < max(speedups) < 8.0
    # speedup at scale at least matches the 6-node-style configuration
    assert speedups[-1] >= speedups[0] * 0.95

    report()
    report("JUWELS Booster (A100) portability:")
    ratio = t_gpu / t_a100
    report(f"  modeled P100/A100 step-time ratio: {ratio:.2f}x "
           f"(paper: 2.42x; bandwidth ratio 2.83x)")
    assert 1.8 < ratio < 2.9


def test_fig11_sypd(report, benchmark):
    """Throughput at scale: the paper reports 0.11 SYPD at 2.28 km with a
    known acoustic time step; we report the analogous quantity."""
    t_cpu, t_gpu, _, cfg = benchmark.pedantic(
        _per_node_times, rounds=1, iterations=1
    )
    comm = _comm_time(2400, cfg, ARIES)
    step = t_gpu + comm
    # paper's effective dt per step at 2.28km-class resolution
    dt_model = 11.25  # s of simulated time per dycore step (Fig. 11 scale)
    sypd = dt_model / (step) * 86400 / (365 * 86400)
    report(f"modeled step time at 2400 nodes: {step:.3f} s")
    report(f"throughput: {sypd:.3f} SYPD (paper: 0.11 SYPD at 2.28 km)")
    assert 0.005 < sypd < 5.0


def test_measured_per_rank_invariance(report, benchmark):
    """Measured sanity: the simulated multi-rank dycore's wall time per
    rank stays roughly constant between 6 and 24 ranks (weak scaling of
    the in-process substitute)."""
    import time

    from repro.fv3.dyncore import DynamicalCore

    def step_time(layout):
        cfg = DynamicalCoreConfig(
            npx=12 * layout, npz=4, layout=layout, dt_atmos=60.0,
            k_split=1, n_split=1,
        )
        core = DynamicalCore(cfg)
        core.step_dynamics()  # build/compile
        t0 = time.perf_counter()
        core.step_dynamics()
        elapsed = time.perf_counter() - t0
        return elapsed / core.partitioner.total_ranks

    t6 = benchmark.pedantic(lambda: step_time(1), rounds=1, iterations=1)
    t24 = step_time(2)
    report(f"per-rank step time: 6 ranks {t6*1e3:.1f} ms, "
           f"24 ranks {t24*1e3:.1f} ms")
    assert t24 / t6 < 3.0  # same order: weak-scaling-like behavior


# ---------------------------------------------------------------------------
# measured mode (PR 10): real worker processes next to the LogGP curve
# ---------------------------------------------------------------------------

_STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")


def _states_equal(a, b) -> bool:
    import numpy as np

    for sa, sb in zip(a, b):
        for name in _STATE_FIELDS:
            if not np.array_equal(getattr(sa, name), getattr(sb, name)):
                return False
        for ta, tb in zip(sa.tracers, sb.tracers):
            if not np.array_equal(ta, tb):
                return False
    return True


def measured_weak_scaling(steps=4, comm_latency=0.02, seed=11,
                          include_24=None, echo=print):
    """Run the 6-tile cube on 1/2/6 worker *processes* (and 24 ranks on
    6 workers when the machine allows) and record the measured per-step
    wall time next to the bit-identity verdict vs the sequential and
    threaded executors.

    This is the measured counterpart of the LogGP projection above: the
    same decomposition, the same per-rank halo message sizes, stepped by
    real OS processes over the shared-memory mailbox with a simulated
    per-message latency — so the latency-hiding claim is *measured*, not
    modeled. Every worker is single-threaded: it steps its block of the
    ranks in lockstep, which hides the latency behind the same windows
    as one thread per rank would (the 1-worker leg is the sequential
    executor's schedule in another process).
    """
    import os

    from repro.run import run
    from repro.runtime import procs, runtime_summary

    def footprint(leg):
        """The leg's largest worker, from the counters the workers
        report. A worker builds and steps its own block only, so its
        peak RSS falls with the ranks it runs (c48 L24: 148 / 105 / 76
        MiB at 6 / 3 / 1 ranks a worker) — at this benchmark's c12 L4 a
        rank is ~0.1 MiB and the peak is what the worker inherits at the
        fork; the arena is one program's transients whatever the ranks."""
        counters = runtime_summary()["procs"]
        leg["worker_peak_rss_mb"] = counters["worker_peak_rss_mb"]
        leg["worker_arena_high_water_mb"] = \
            counters["worker_arena_high_water_mb"]
        return (f"worker peak {leg['worker_peak_rss_mb']:.0f} MiB RSS, "
                f"{leg['worker_arena_high_water_mb']:.2f} MiB arena")

    cfg = DynamicalCoreConfig(npx=12, npz=4, layout=1, dt_atmos=120.0,
                              k_split=1, n_split=2, n_tracers=1)
    echo(f"measured weak scaling: npx={cfg.npx} npz={cfg.npz} "
         f"ranks={cfg.total_ranks} steps={steps} "
         f"latency={comm_latency * 1e3:.0f}ms")
    sequential = run("baroclinic_wave", cfg, steps=steps, seed=seed,
                     executor="sequential")
    threaded = run("baroclinic_wave", cfg, steps=steps, seed=seed,
                   executor="threads")
    identical = _states_equal(sequential.members[0].states,
                              threaded.members[0].states)
    legs = []
    for workers in (1, 2, 6):
        procs.reset_metrics()
        result = run("baroclinic_wave", cfg, steps=steps, seed=seed,
                     executor="processes", workers=workers,
                     comm_latency=comm_latency)
        leg_identical = _states_equal(sequential.members[0].states,
                                      result.members[0].states)
        identical = identical and leg_identical
        legs.append({
            "workers": workers,
            "ranks": cfg.total_ranks,
            "ranks_per_worker": cfg.total_ranks // workers,
            "step_seconds": result.seconds / steps,
            "bit_identical_to_sequential": leg_identical,
        })
        echo(f"  {workers} proc(s) x {cfg.total_ranks // workers} "
             f"rank(s): {result.seconds / steps * 1e3:8.1f} ms/step  "
             f"bit-identical={leg_identical}  {footprint(legs[-1])}")
    if include_24 is None:
        include_24 = (os.cpu_count() or 1) >= 8
    if include_24:
        cfg24 = DynamicalCoreConfig(npx=12, npz=4, layout=2,
                                    dt_atmos=120.0, k_split=1, n_split=2,
                                    n_tracers=1)
        seq24 = run("baroclinic_wave", cfg24, steps=steps, seed=seed,
                    executor="sequential")
        procs.reset_metrics()
        result = run("baroclinic_wave", cfg24, steps=steps, seed=seed,
                     executor="processes", workers=6,
                     comm_latency=comm_latency)
        leg_identical = _states_equal(seq24.members[0].states,
                                      result.members[0].states)
        identical = identical and leg_identical
        legs.append({
            "workers": 6,
            "ranks": cfg24.total_ranks,
            "ranks_per_worker": cfg24.total_ranks // 6,
            "step_seconds": result.seconds / steps,
            "bit_identical_to_sequential": leg_identical,
        })
        echo(f"  6 proc(s) x 4 rank(s) (24-rank cube): "
             f"{result.seconds / steps * 1e3:8.1f} ms/step  "
             f"bit-identical={leg_identical}  {footprint(legs[-1])}")
    return {
        "config": {
            "npx": cfg.npx, "npz": cfg.npz, "layout": cfg.layout,
            "k_split": cfg.k_split, "n_split": cfg.n_split,
            "n_tracers": cfg.n_tracers, "steps": steps, "seed": seed,
            "comm_latency": comm_latency,
        },
        "legs": legs,
        "threads_bit_identical": _states_equal(
            sequential.members[0].states, threaded.members[0].states
        ),
        "bit_identical": identical,
    }


def projected_weak_scaling(npx=96, npz=80, echo=print):
    """The Fig. 11 LogGP projection as plain data (the pytest paths
    above assert on it; measured mode writes it next to the measured
    curve)."""
    t_cpu, t_gpu, t_a100, cfg = _per_node_times(npx=npx, npz=npz)
    rows = []
    for nodes in NODE_COUNTS:
        comm = _comm_time(nodes, cfg, ARIES)
        rows.append({
            "nodes": nodes,
            "fortran_seconds": t_cpu + comm,
            "python_gpu_seconds": t_gpu + comm,
            "speedup": (t_cpu + comm) / (t_gpu + comm),
        })
        echo(f"  {nodes:>5} nodes: FORTRAN {t_cpu + comm:.4f}s  "
             f"Python-GPU {t_gpu + comm:.4f}s  "
             f"({(t_cpu + comm) / (t_gpu + comm):.2f}x)")
    return {
        "per_node": {"npx": npx, "npz": npz, "cpu_seconds": t_cpu,
                     "gpu_seconds": t_gpu, "a100_seconds": t_a100},
        "curve": rows,
    }


def main(argv=None):
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="Fig. 11 weak scaling: LogGP projection plus a "
        "measured curve on the process-based rank executor"
    )
    parser.add_argument("--measured", action="store_true",
                        help="run 1/2/6 worker-process configurations "
                        "of the 6-tile cube and record measured "
                        "per-step wall times")
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--latency", type=float, default=0.02,
                        help="simulated per-message latency [s]")
    parser.add_argument("--ranks24", action="store_true",
                        help="force the 24-rank (layout=2) leg even on "
                        "small machines")
    parser.add_argument("--projection-npx", type=int, default=96)
    parser.add_argument("--projection-npz", type=int, default=80)
    parser.add_argument("--output", type=pathlib.Path, default=OUTPUT,
                        help="where the result JSON goes "
                        "(default: %(default)s)")
    args = parser.parse_args(argv)
    args.output.parent.mkdir(parents=True, exist_ok=True)

    out = {"benchmark": "fig11_weak_scaling"}
    print("Fig. 11 — LogGP projection:")
    out["projected"] = projected_weak_scaling(
        npx=args.projection_npx, npz=args.projection_npz
    )
    if args.measured:
        out["measured"] = measured_weak_scaling(
            steps=args.steps, comm_latency=args.latency,
            include_24=True if args.ranks24 else None,
        )
        if not out["measured"]["bit_identical"]:
            print("ERROR: executors disagree bit-for-bit", file=sys.stderr)
            json.dump(out, open(args.output, "w"), indent=2)
            return 1
    with open(args.output, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
