"""Backend registry and default-backend management for the stencil DSL.

Backends are looked up by name through a process-wide registry instead of
a hardcoded tuple in ``stencil.py``: a backend is a *factory* taking the
:class:`~repro.dsl.stencil.StencilObject` and returning an executor
callable ``executor(fields, scalars, origin, domain, bounds)``. The
built-in ``"numpy"`` and ``"dataflow"`` backends self-register when their
modules import; third-party backends call :func:`register_backend` and
need no edits here or in ``stencil.py``.

The process-wide default backend is managed by :func:`default_backend`,
usable both as a plain setter and as a context manager restoring the
previous default on exit::

    repro.dsl.default_backend("dataflow")          # set for the process
    with repro.dsl.default_backend("numpy"):       # set, then restore
        ...
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Tuple

__all__ = [
    "UnknownBackendError",
    "available_backends",
    "create_executor",
    "current_default_backend",
    "default_backend",
    "get_backend",
    "register_backend",
    "unregister_backend",
]

#: name -> factory(StencilObject) -> executor
_REGISTRY: Dict[str, Callable] = {}

#: built-in backends importable on demand; their modules self-register
_LAZY_BUILTINS = {
    "numpy": "repro.dsl.backend_numpy",
    "dataflow": "repro.dsl.backend_dataflow",
    "compiled": "repro.dsl.backend_compiled",
}


class UnknownBackendError(ValueError):
    """Raised when a backend name is not in the registry.

    Carries the registry contents and, when a near-miss exists, a
    nearest-match suggestion.
    """

    def __init__(self, name: str, available: Tuple[str, ...]):
        import difflib  # (only ever needed on this error path)

        self.backend = name
        self.available = tuple(sorted(available))
        matches = difflib.get_close_matches(name, self.available, n=1)
        self.suggestion = matches[0] if matches else None
        message = (
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(self.available) or '(none)'}"
        )
        if self.suggestion:
            message += f" — did you mean {self.suggestion!r}?"
        super().__init__(message)


def register_backend(name: str, factory: Callable, *,
                     replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    ``factory(stencil_object)`` must return an executor. Registering an
    already-taken name raises unless ``replace=True`` (the built-in
    modules pass it so re-imports stay idempotent).
    """
    if not isinstance(name, str) or not name:
        raise TypeError("backend name must be a non-empty string")
    if not callable(factory):
        raise TypeError(f"backend factory for {name!r} must be callable")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; "
            f"pass replace=True to override"
        )
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> Callable:
    """The factory registered under ``name``.

    Built-in backends are imported on first request so the dataflow
    toolchain stays off the import path until used. Unknown names raise
    :class:`UnknownBackendError` naming the registry contents and the
    nearest match.
    """
    factory = _REGISTRY.get(name)
    if factory is None and name in _LAZY_BUILTINS:
        importlib.import_module(_LAZY_BUILTINS[name])
        factory = _REGISTRY.get(name)
    if factory is None:
        raise UnknownBackendError(name, available_backends())
    return factory


def available_backends() -> Tuple[str, ...]:
    """Sorted names of all registered (and built-in) backends."""
    return tuple(sorted(set(_REGISTRY) | set(_LAZY_BUILTINS)))


def create_executor(name: str, stencil_object):
    """Instantiate the executor for ``stencil_object`` on backend ``name``."""
    return get_backend(name)(stencil_object)


# ---------------------------------------------------------------------------
# default backend
# ---------------------------------------------------------------------------


def _initial_default() -> str:
    """Process default, overridable via ``REPRO_BACKEND=<name>``.

    Validation is deferred to first use: an unknown name surfaces as
    :class:`UnknownBackendError` from lookup, with suggestions, instead of
    failing at import time.
    """
    import os

    return os.environ.get("REPRO_BACKEND", "").strip() or "numpy"


_default_backend = _initial_default()


def current_default_backend() -> str:
    """Name of the backend used when a stencil doesn't pin one."""
    return _default_backend


class _DefaultBackendGuard:
    """Returned by :func:`default_backend`: the switch has already
    happened; entering the guard as a context manager arranges for the
    previous default to be restored on exit."""

    __slots__ = ("backend", "_previous")

    def __init__(self, backend: str, previous: str):
        self.backend = backend
        self._previous = previous

    def __enter__(self) -> str:
        return self.backend

    def __exit__(self, *exc) -> bool:
        global _default_backend
        _default_backend = self._previous
        return False

    def __repr__(self) -> str:
        return (
            f"default_backend({self.backend!r}) "
            f"[was {self._previous!r}]"
        )


def default_backend(name: str = None):
    """Get or set the process-wide default backend.

    - ``default_backend()`` returns the current default's name.
    - ``default_backend("dataflow")`` switches the default immediately and
      returns a guard usable as a context manager that restores the
      previous default on exit; ignoring the guard makes the switch
      permanent.
    """
    global _default_backend
    if name is None:
        return _default_backend
    if name not in available_backends():
        raise UnknownBackendError(name, available_backends())
    previous = _default_backend
    _default_backend = name
    return _DefaultBackendGuard(name, previous)
