"""Compiled backend: lower one stencil to an SDFG, JIT the kernel plan.

Same lowering pipeline as the ``dataflow`` backend — a stencil call
inserts a StencilComputation library node, expands it, and compiles the
result through the shared program cache — but the compile step requests
the ``compiled`` emission target (:mod:`repro.sdfg.codegen_compiled`),
which turns each fused kernel plan into a JITted scalar loop nest
(k-blocked, i/j-tiled, optionally threaded) instead of a sequence of
full-domain ufunc calls. The bit-exactness contract against the NumPy
emission holds: same evaluation order, ``fastmath`` off.

Graceful degradation: when no JIT engine is usable (no C compiler — see
:mod:`repro.runtime.jit`) the executor warns once and compiles through the
NumPy emission instead, i.e. it behaves exactly like the ``dataflow``
backend. This is about a missing toolchain; a compiled stencil that fails
at run time is re-executed on the NumPy debug backend instead
(:mod:`repro.resilience`).
"""

from __future__ import annotations

import warnings

from repro.dsl.backend_dataflow import DataflowStencilExecutor
from repro.runtime.jit import JitUnavailableError

__all__ = ["CompiledStencilExecutor"]

_WARNED = [False]


def _warn_once(reason: str) -> None:
    if not _WARNED[0]:
        _WARNED[0] = True
        warnings.warn(
            f"compiled backend unavailable ({reason}); falling back to the "
            f"dataflow (NumPy emission) backend for this process",
            RuntimeWarning,
            stacklevel=4,
        )


class CompiledStencilExecutor(DataflowStencilExecutor):
    """Executes a stencil through the SDFG pipeline with JITted kernels."""

    compile_backend = "compiled"

    def _compile(self, sdfg):
        from repro.runtime import jit
        from repro.runtime.compile_cache import get_or_compile

        if jit.available():
            try:
                return get_or_compile(sdfg, backend="compiled")
            except JitUnavailableError as exc:
                # engine resolved but its toolchain broke at use
                # (e.g. REPRO_JIT=cgen without a C compiler)
                _warn_once(str(exc))
        else:
            _warn_once("no JIT engine: no C compiler")
        return get_or_compile(sdfg, backend="numpy")


# self-registration: "compiled" resolves through the repro.dsl.backends
# registry; the module itself is imported lazily on first lookup
from repro.dsl.backends import register_backend as _register_backend

_register_backend("compiled", CompiledStencilExecutor, replace=True)
