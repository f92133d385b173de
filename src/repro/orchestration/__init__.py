"""Whole-program SDFG construction (Sec. V-B).

The orchestration layer makes object-oriented Python FV3 code analyzable
with respect to data movement: a Python-to-Python preprocessor propagates
constants, unrolls configuration-dependent loops and eliminates dead
branches; closure resolution turns methods into free functions; anything
that cannot be parsed becomes an automatic callback into the interpreter.

The preprocessor and the closure resolver serve tracing only, and are
imported with the first trace (:mod:`repro.orchestration.trace`) or the
first use of their names here.
"""

import importlib

from repro.orchestration.program import (
    OrchestratedProgram,
    OrchestrationError,
    Transient,
    orchestrate,
    transient,
)

#: trace-side names → the module that defines them, imported when asked
_LAZY = {
    "preprocess_function": "repro.orchestration.preprocessor",
    "resolve_closure": "repro.orchestration.closure",
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "OrchestratedProgram",
    "OrchestrationError",
    "Transient",
    "orchestrate",
    "preprocess_function",
    "resolve_closure",
    "transient",
]
