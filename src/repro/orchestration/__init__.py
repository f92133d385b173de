"""Whole-program SDFG construction (Sec. V-B).

The orchestration layer makes object-oriented Python FV3 code analyzable
with respect to data movement: a Python-to-Python preprocessor propagates
constants, unrolls configuration-dependent loops and eliminates dead
branches; closure resolution turns methods into free functions; anything
that cannot be parsed becomes an automatic callback into the interpreter.
"""

from repro.orchestration.closure import resolve_closure
from repro.orchestration.preprocessor import preprocess_function
from repro.orchestration.program import (
    OrchestratedProgram,
    OrchestrationError,
    Transient,
    orchestrate,
    transient,
)

__all__ = [
    "OrchestratedProgram",
    "OrchestrationError",
    "Transient",
    "orchestrate",
    "preprocess_function",
    "resolve_closure",
    "transient",
]
