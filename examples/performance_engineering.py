"""The Fig. 7 optimization cycle, end to end, on the real dynamical core.

Takes the programs one rank's time step runs (Sec. V-B orchestration),
each weighted by its calls per step, then walks the paper's pipeline
stage by stage — schedule heuristics, local caching, power-operator
strength reduction, region splitting, pruning and transfer tuning —
printing the Table III rows and the Fig. 10 kernel report before and
after.

Run:  python examples/performance_engineering.py
"""

from repro.machine import HASWELL, P100
from repro.core.perfmodel import bound_report, format_bound_report
from repro.core.pipeline import (
    OptimizationPipeline,
    PipelineOptions,
    format_table3,
)
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore


def main() -> None:
    config = DynamicalCoreConfig(
        npx=48, npz=32, layout=1, dt_atmos=225.0, k_split=1, n_split=3
    )
    print("orchestrating the programs of one rank's step (Sec. V-B)...")
    core = DynamicalCore(
        config, comm=LocalComm(config.total_ranks, owned_ranks=(0,))
    )
    graphs = core.step_graphs()
    for sdfg in graphs:
        print(f"  {sdfg.name}: {sdfg.stats()}")

    print("\ninitial Fig. 10 report (worst kernels, % of peak bandwidth):")
    print(format_bound_report(bound_report(graphs, P100, top=6)))

    print("\nrunning the optimization pipeline (Fig. 7)...")
    pipeline = OptimizationPipeline(
        PipelineOptions(
            machine=P100,
            baseline_machine=HASWELL,
            transfer_states=("xppm", "yppm", "transverse", "scale_flux"),
        )
    )
    stages = pipeline.run(graphs)
    print()
    print(format_table3(stages))

    print("\nfinal Fig. 10 report:")
    print(format_bound_report(bound_report(graphs, P100, top=6)))

    print(
        "\nAll of this happened in the toolchain — the model code "
        "(repro/fv3/stencils/*.py) was never modified (Sec. IX-A)."
    )


if __name__ == "__main__":
    main()
