"""GT4Py-like declarative stencil DSL embedded in Python.

The DSL separates *what* a stencil computes (relative-offset field accesses,
vertical iteration policies, horizontal regions) from *how* it is executed
(backends). There are two backends, both lowering a stencil to the
data-centric SDFG IR (:mod:`repro.sdfg`) and generating code from it:

- ``"numpy"``: the lowered SDFG's NumPy emission, for rapid prototyping
  and debugging, the paper's pure-Python backend (Sec. III-A).
- ``"compiled"``: a JIT-compiled loop nest per kernel (Sec. V); without a
  C compiler, the NumPy emission.

``available_backends()`` names them, and ``default_backend(name)``
switches the process default (also usable as a context manager;
``REPRO_BACKEND`` sets it from the environment). Any other name raises
:class:`UnknownBackendError`, with the nearest match, where it is given.
"""

from repro.dsl.backends import (
    UnknownBackendError,
    available_backends,
    default_backend,
)
from repro.dsl.builtins import (
    BACKWARD,
    FORWARD,
    PARALLEL,
    computation,
    horizontal,
    i_end,
    i_start,
    interval,
    j_end,
    j_start,
    region,
)
from repro.dsl.stencil import StencilObject, stencil
from repro.dsl.storage import StorageSpec, make_storage
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
    "horizontal",
    "i_end",
    "i_start",
    "interval",
    "j_end",
    "j_start",
    "make_storage",
    "region",
    "stencil",
]
