"""The Fig. 7 optimization cycle, end to end, on the real dynamical core.

First the Python-to-Python preprocessor (Sec. V-A) on a small program:
it unrolls a loop, folds a constant container and drops a dead branch,
and the program it traces is bit-identical to running the method
eagerly, stencil by stencil, on both backends. Dropped from memory, the
program comes back from the record its trace left, traced and compiled
by no one (a primed start). Then the programs one rank's time step runs
(Sec. V-B orchestration), each weighted by its calls per step, go
through the paper's pipeline stage by stage — schedule heuristics, local
caching, power-operator strength reduction, region splitting, pruning
and transfer tuning — printing the Table III rows and the Fig. 10 kernel
report before and after.

Run:  python examples/performance_engineering.py
"""

import ast

import numpy as np

from repro.core.perfmodel import bound_report, format_bound_report
from repro.core.pipeline import (
    OptimizationPipeline,
    PipelineOptions,
    format_table3,
)
from repro.dsl import (
    PARALLEL,
    Field,
    available_backends,
    computation,
    default_backend,
    interval,
    stencil,
)
from repro.fv3 import DynamicalCore
from repro.fv3.communicator import LocalComm
from repro.fv3.config import DynamicalCoreConfig
from repro.machine import HASWELL, P100
from repro.orchestration import (
    orchestrate,
    preprocess_function,
    resolve_closure,
)
from repro.runtime import compile_cache, jit

SHAPE = (16, 16, 8)
ORIGIN = (0, 0, 0)


@stencil
def _accumulate(q: Field, total: Field, weight: float):
    with computation(PARALLEL), interval(...):
        total = total + weight * q


@stencil(externals={"FLOOR": 0.0})
def _clip_below(total: Field):
    with computation(PARALLEL), interval(...):
        total = total if total > FLOOR else FLOOR  # noqa: F821


class TracerSum:
    """Sums a configuration's tracers into one field, weighted by a table
    the program spells out (FV3's variable number of tracers, Sec. V-A),
    and clips the sum when the configuration asks for it."""

    def __init__(self, clip: bool):
        self.clip = clip

    def run(self, tracers, total):
        names = ("vapour", "cloud", "rain")
        weights = {"vapour": 1.0, "cloud": 0.5, "rain": 0.25}
        for index in range(len(names)):
            _accumulate(tracers[index], total, weights[names[index]],
                        origin=ORIGIN, domain=SHAPE)
        if self.clip:
            _clip_below(total, origin=ORIGIN, domain=SHAPE)

    orchestrated = orchestrate(run)


def preprocessing() -> None:
    """The preprocessor's view of :meth:`TracerSum.run`, and the traced
    program against the eager method on each backend."""
    model = TracerSum(clip=False)
    node, bindings = resolve_closure(TracerSum.run, model)
    constants = {k: v for k, v in bindings.items() if isinstance(v, bool)}
    print("the program as the tracer sees it (the loop unrolled, the "
          "weights folded, the dead branch gone):")
    print(ast.unparse(preprocess_function(node, constants)))
    rng = np.random.default_rng(7)
    tracers = [rng.standard_normal(SHAPE) for _ in range(3)]
    for backend in available_backends():
        same = []
        with default_backend(backend):
            for clip in (False, True):
                model = TracerSum(clip)
                eager, traced = np.zeros(SHAPE), np.zeros(SHAPE)
                model.run(tracers, eager)
                model.orchestrated(tracers, traced)
                same.append(np.array_equal(eager, traced))
        print(f"  {backend}: the traced program equals the eager method "
              f"bit for bit, with and without the clip: {all(same)}")

    # every template and plan dropped from memory (not from disk): the
    # next call restores the program from its record
    compile_cache.reset(clear=True)
    jit.reset()
    with default_backend("compiled"):
        TracerSum(clip=True).orchestrated(tracers, np.zeros(SHAPE))
    stats = compile_cache.stats()
    print(f"a primed start: {stats['programs_restored']} restored, "
          f"{stats['program_traces']} traced, "
          f"{jit.stats()['kernels_built']} kernels built")


def main() -> None:
    print("preprocessing a program (Sec. V-A)...")
    preprocessing()

    config = DynamicalCoreConfig(
        npx=48, npz=32, layout=1, dt_atmos=225.0, k_split=1, n_split=3
    )
    print("\norchestrating the programs of one rank's step (Sec. V-B)...")
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
    print(pipeline.audit.summary())

    print("\nfinal Fig. 10 report:")
    print(format_bound_report(bound_report(graphs, P100, top=6)))

    print(
        "\nAll of this happened in the toolchain — the model code "
        "(repro/fv3/stencils/*.py) was never modified (Sec. IX-A)."
    )


if __name__ == "__main__":
    main()
