"""Dataflow backend: lower one stencil to an SDFG, compile and run.

This is the "GT4Py backend that generates SDFGs" of Sec. V: each stencil
call inserts a StencilComputation library node into a fresh SDFG, which is
expanded and compiled through the shared code generator. Compiled programs
are cached per (shapes, origin, domain, bounds) specialization.

Full-program optimization across many stencils is handled by the
orchestration layer (:mod:`repro.orchestration`), not here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dsl.backend_numpy import GridBounds


class DataflowStencilExecutor:
    """Executes a stencil through the SDFG pipeline."""

    #: which :mod:`repro.runtime.compile_cache` emission backend compiles
    #: the lowered SDFG; the ``compiled`` backend subclasses and overrides
    compile_backend = "numpy"

    def __init__(self, stencil_object):
        from repro.obs import tracer as _obs

        self._tracer = _obs.get_tracer()
        self.stencil_object = stencil_object
        self._cache: Dict[Tuple, object] = {}

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
            with self._tracer.span("exec.dataflow.compile"):
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
            with self._tracer.span("exec.dataflow"):
                program(arrays=fields, scalars=scalars)
        else:
            program(arrays=fields, scalars=scalars)

    def _compile(self, sdfg):
        """Compile the lowered SDFG through the shared program cache."""
        from repro.runtime.compile_cache import get_or_compile

        return get_or_compile(sdfg, backend=self.compile_backend)


# self-registration: "dataflow" resolves through the repro.dsl.backends
# registry; the module itself is imported lazily on first lookup
from repro.dsl.backends import register_backend as _register_backend

_register_backend("dataflow", DataflowStencilExecutor, replace=True)
