"""GT4Py-like declarative stencil DSL embedded in Python.

The DSL separates *what* a stencil computes (relative-offset field accesses,
vertical iteration policies, horizontal regions) from *how* it is executed
(backends). Two backends are provided:

- ``"numpy"``: a pure-NumPy debug backend for rapid prototyping, mirroring
  the paper's pure-Python backend (Sec. III-A).
- ``"dataflow"``: lowering to the data-centric SDFG IR (:mod:`repro.sdfg`)
  followed by optimization and code generation (Sec. V).

Backends are looked up through the :mod:`repro.dsl.backends` registry —
``register_backend(name, factory)`` plugs in new ones without touching the
DSL, ``available_backends()`` lists them, and ``default_backend(name)``
switches the process default (also usable as a context manager).
"""

from repro.dsl.backends import (
    UnknownBackendError,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
)
from repro.dsl.builtins import (
    BACKWARD,
    FORWARD,
    PARALLEL,
    computation,
    function,
    horizontal,
    i_end,
    i_start,
    interval,
    j_end,
    j_start,
    region,
)
from repro.dsl.stencil import StencilObject, stencil
from repro.dsl.storage import StorageSpec, make_storage, zeros
from repro.dsl.types import Field, FieldIJ, FieldK

__all__ = [
    "BACKWARD",
    "FORWARD",
    "PARALLEL",
    "Field",
    "FieldIJ",
    "FieldK",
    "StencilObject",
    "StorageSpec",
    "UnknownBackendError",
    "available_backends",
    "computation",
    "default_backend",
    "function",
    "get_backend",
    "horizontal",
    "i_end",
    "i_start",
    "interval",
    "j_end",
    "j_start",
    "make_storage",
    "region",
    "register_backend",
    "stencil",
    "zeros",
]
