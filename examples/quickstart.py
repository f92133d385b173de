"""Quickstart: write a stencil, run it, inspect and optimize its dataflow.

Walks the Fig. 4 journey: a declarative GT4Py-style stencil → a library
node in an SDFG → expanded kernels → fused, optimized kernels — with the
performance model explaining each step.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.machine import P100
from repro.core.perfmodel import bound_report, format_bound_report
from repro.core.pipeline import optimize_sdfg_locally
from repro.dsl import (
    Field,
    PARALLEL,
    available_backends,
    computation,
    default_backend,
    interval,
    stencil,
)
from repro.sdfg import SDFG
from repro.sdfg.analysis import total_bytes
from repro.sdfg.codegen import compile_sdfg
from repro.sdfg.nodes import StencilComputation
from repro.sdfg.transformations import OTFMapFusion, apply_exhaustively


# ---- 1. declarative stencils (Sec. III-A) --------------------------------
@stencil
def diffusive_flux(q: Field, flux: Field):
    """5-point Laplacian: the canonical horizontal stencil."""
    with computation(PARALLEL), interval(...):
        flux = q[-1, 0, 0] + q[1, 0, 0] + q[0, -1, 0] + q[0, 1, 0] - 4.0 * q


@stencil
def apply_flux(q: Field, flux: Field, q_out: Field, alpha: float):
    with computation(PARALLEL), interval(...):
        q_out = q + alpha * flux


def main() -> None:
    shape = (128, 128, 64)
    domain = (124, 124, 64)
    origin = (2, 2, 0)
    rng = np.random.default_rng(42)
    q = rng.random(shape)

    # ---- 2. the numpy backend: the stencil's NumPy emission -------------
    # each stencil lowers to a one-stencil SDFG on its first call (once per
    # shape) and runs it as NumPy ufuncs. There are two backends; the
    # default is scoped with a context manager (restored on exit) instead
    # of a mutable module global
    print("backends:", ", ".join(available_backends()))
    flux = np.zeros(shape)
    q_out = np.zeros(shape)
    with default_backend("numpy"):
        diffusive_flux(q, flux, origin=origin, domain=domain)
        apply_flux(q, flux, q_out, 0.1, origin=origin, domain=domain)
    print("NumPy backend result checksum:", float(q_out.sum()))

    # ---- 3. the same computation as a whole-program SDFG ---------------
    sdfg = SDFG("diffusion")
    sdfg.add_array("q", shape)
    sdfg.add_array("q_out", shape)
    sdfg.add_transient("flux", shape)
    state = sdfg.add_state("diffusion")
    # the producer covers the consumer's reads: same extents here (offset 0)
    state.add(StencilComputation(
        diffusive_flux.definition, diffusive_flux.extents,
        mapping={"q": "q", "flux": "flux"}, domain=domain, origin=origin,
    ))
    state.add(StencilComputation(
        apply_flux.definition, apply_flux.extents,
        mapping={"q": "q", "flux": "flux", "q_out": "q_out"},
        domain=domain, origin=origin,
        scalar_mapping={"alpha": "alpha"},
    ))
    sdfg.expand_library_nodes()
    print("\nexpanded SDFG:", sdfg.stats())
    print(f"modeled DRAM traffic: {total_bytes(sdfg) / 1e6:.1f} MB")

    # ---- 4. data-centric optimization (Sec. VI) ------------------------
    applied = apply_exhaustively(sdfg, [OTFMapFusion()])
    print(f"\nOTF map fusion applied {applied}x "
          f"(the transient 'flux' array is gone: {'flux' not in sdfg.arrays})")
    print(f"modeled DRAM traffic now: {total_bytes(sdfg) / 1e6:.1f} MB")
    optimize_sdfg_locally(sdfg, P100)

    # ---- 5. compile and validate ---------------------------------------
    program = compile_sdfg(sdfg)
    arrays = {"q": q, "q_out": np.zeros(shape)}
    program(arrays=arrays, scalars={"alpha": 0.1})
    np.testing.assert_allclose(arrays["q_out"], q_out, rtol=1e-14)
    print("optimized program matches the numpy backend ✓")

    # ---- 6. the Fig. 10 view --------------------------------------------
    print("\nmodel-augmented kernel report (P100 model):")
    print(format_bound_report(bound_report([sdfg], P100)))

    # ---- 7. from one stencil to the whole model -------------------------
    # the same stack drives the full dynamical core through the unified
    # experiment facade: scenario registry -> run() -> structured result
    from repro.fv3.config import DynamicalCoreConfig
    from repro.run import run
    from repro.scenarios import available_scenarios

    print("\nregistered scenarios:", ", ".join(available_scenarios()))
    result = run(
        "baroclinic_wave",
        DynamicalCoreConfig(npx=12, npz=4, layout=1, dt_atmos=120.0,
                            k_split=1, n_split=2, n_tracers=1),
        steps=1,
    )
    print(result.describe())


if __name__ == "__main__":
    main()
