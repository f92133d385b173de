"""A stencil lowered to an SDFG outside any program, and run through the
SDFG's NumPy emission: the code every program runs under the ``numpy``
backend, and the ``compiled`` backend's fallback without a C compiler."""

from repro.dsl.backend_compiled import CompiledStencilExecutor
from repro.sdfg.codegen import compile_sdfg


def build_sdfg(stencil_obj, arrays, origin=(0, 0, 0), domain=None,
               bounds=None):
    """The SDFG a call of ``stencil_obj`` on ``arrays`` lowers to."""
    domain = domain or next(iter(arrays.values())).shape
    return CompiledStencilExecutor(stencil_obj).build_sdfg(
        {n: a.shape for n, a in arrays.items()},
        {n: a.dtype.type for n, a in arrays.items()},
        origin,
        domain,
        bounds,
    )


def run_emission(stencil_obj, arrays, scalars=None, origin=None,
                 domain=None, bounds=None):
    """Run ``stencil_obj`` in place on ``arrays`` through the NumPy
    emission of its lowered SDFG."""
    origin, domain = stencil_obj._resolve_domain(arrays, origin, domain)
    sdfg = build_sdfg(stencil_obj, arrays, origin, domain, bounds)
    compile_sdfg(sdfg)(arrays=arrays, scalars=scalars or {})
