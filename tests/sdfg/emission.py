"""The SDFG a stencil call lowers to outside any program — what both
stencil backends compile (``numpy`` to its NumPy emission, ``compiled``
to C kernels) — and its NumPy emission compiled directly."""

from repro.dsl.backend_compiled import StencilExecutor
from repro.sdfg.codegen import compile_sdfg


def build_sdfg(stencil_obj, arrays, origin=(0, 0, 0), domain=None,
               bounds=None):
    """The SDFG a call of ``stencil_obj`` on ``arrays`` lowers to."""
    domain = domain or next(iter(arrays.values())).shape
    return StencilExecutor(stencil_obj).build_sdfg(
        {n: a.shape for n, a in arrays.items()},
        {n: a.dtype.type for n, a in arrays.items()},
        origin,
        domain,
        bounds,
    )


def run_emission(stencil_obj, arrays, scalars=None, origin=None,
                 domain=None, bounds=None):
    """Run ``stencil_obj`` in place on ``arrays`` through the NumPy
    emission of its lowered SDFG, compiled directly (no program cache)."""
    origin, domain = stencil_obj._resolve_domain(arrays, origin, domain)
    sdfg = build_sdfg(stencil_obj, arrays, origin, domain, bounds)
    compile_sdfg(sdfg)(arrays=arrays, scalars=scalars or {})
