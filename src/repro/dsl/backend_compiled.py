"""The stencil backends: lower one stencil to an SDFG, then run one of
its two emissions.

Each stencil call inserts a StencilComputation library node into a fresh
SDFG, expands it and compiles the result through the shared program
cache for the backend's emission target:

- ``numpy`` runs the NumPy emission (:mod:`repro.sdfg.codegen`), the
  full-domain ufunc sweeps every program runs under the ``numpy``
  backend — the paper's pure-Python backend for prototyping and
  debugging (Sec. I);
- ``compiled`` runs the C kernels (:mod:`repro.sdfg.codegen_compiled`):
  each fused kernel plan becomes a JITted scalar loop nest (k-blocked,
  i/j-tiled, optionally threaded) with the same evaluation order,
  ``fastmath`` off, so both emissions give the same bits.

Programs are cached per (shapes, origin, domain, bounds) specialization:
a stencil's first call on a backend pays one lowering.

Graceful degradation: where no C compiler is usable
(:func:`repro.runtime.jit.available`) a ``compiled`` request gets the
NumPy emission, warned once;
:func:`repro.runtime.compile_cache.get_or_compile` decides that for
stencils and programs alike. This is about a missing toolchain; a
compiled stencil that fails at run time is re-executed on ``numpy``
(:mod:`repro.resilience`), which therefore does not consult
``compile.fail``: the failed call consulted it already.

Full-program optimization across many stencils is handled by the
orchestration layer (:mod:`repro.orchestration`), not here.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from repro.dsl.bounds import GridBounds

__all__ = ["StencilExecutor"]


class StencilExecutor:
    """Executes a stencil through the SDFG pipeline, on the ``compiled``
    or the ``numpy`` emission target."""

    def __init__(self, stencil_object, target: str = "compiled"):
        from repro.obs import tracer as _obs
        from repro.runtime import compile_cache

        self._tracer = _obs.get_tracer()
        self.stencil_object = stencil_object
        self._span = f"exec.{target}"
        self._cache: Dict[Tuple, object] = {}
        # the numpy target does not consult compile.fail: a failed
        # compiled call re-runs there and has consulted once already
        self._compile = functools.partial(
            compile_cache._get_or_compile if target == "numpy"
            else compile_cache.get_or_compile,
            backend=target,
        )

    def build_sdfg(
        self,
        shapes: Dict[str, Tuple[int, ...]],
        dtypes: Dict[str, type],
        origin: Tuple[int, int, int],
        domain: Tuple[int, int, int],
        bounds: Optional[GridBounds] = None,
    ):
        from repro.sdfg.graph import SDFG
        from repro.sdfg.nodes import StencilComputation

        so = self.stencil_object
        sdfg = SDFG(so.name)
        for p in so.definition.field_params:
            sdfg.add_array(
                p.name, shapes[p.name], dtypes[p.name], axes=p.field_type.axes
            )
        state = sdfg.add_state(so.name)
        node = StencilComputation(
            so.definition,
            so.extents,
            mapping={p.name: p.name for p in so.definition.field_params},
            domain=domain,
            origin=origin,
            scalar_mapping={p.name: p.name for p in so.definition.scalar_params},
            bounds=bounds,
        )
        state.add(node)
        sdfg.expand_library_nodes()
        return sdfg

    def __call__(self, fields, scalars, origin, domain, bounds=None) -> None:
        key = (
            tuple(sorted((n, a.shape, a.dtype.str) for n, a in fields.items())),
            origin,
            domain,
            (bounds.origin, bounds.tile_shape) if bounds else None,
        )
        program = self._cache.get(key)
        if program is None:
            # lower + compile: traced separately so reports distinguish
            # one-time specialization cost from steady-state execution
            with self._tracer.span(f"{self._span}.compile"):
                sdfg = self.build_sdfg(
                    {n: a.shape for n, a in fields.items()},
                    {n: a.dtype.type for n, a in fields.items()},
                    origin,
                    domain,
                    bounds,
                )
                program = self._compile(sdfg)
            self._cache[key] = program
        if self._tracer.enabled:
            with self._tracer.span(self._span):
                program(arrays=fields, scalars=scalars)
        else:
            program(arrays=fields, scalars=scalars)


# self-registration: both names resolve through the repro.dsl.backends
# registry; the module itself is imported lazily on first lookup
from repro.dsl.backends import register_backend as _register_backend

for _target in ("numpy", "compiled"):
    _register_backend(
        _target, functools.partial(StencilExecutor, target=_target),
        replace=True,
    )
