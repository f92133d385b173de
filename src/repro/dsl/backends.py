"""The stencil DSL's two backends and the process default.

There are two backends, two emissions of one lowering:
``"compiled"`` (C kernels; the NumPy emission where no C compiler is)
and ``"numpy"`` (the NumPy emission, for prototyping and debugging).
Every place a backend name enters — :func:`default_backend`, the first
read of ``REPRO_BACKEND``, ``@stencil(backend=...)``, a stencil call's
``backend=``, ``OrchestratedProgram.compile(backend=...)`` and
``ServiceConfig.backend`` — passes it through :func:`check_backend`, so
a misspelt name raises :class:`UnknownBackendError` where it was given
instead of running another backend.

The process-wide default backend is managed by :func:`default_backend`,
usable both as a plain setter and as a context manager restoring the
previous default on exit::

    repro.dsl.default_backend("compiled")          # set for the process
    with repro.dsl.default_backend("numpy"):       # set, then restore
        ...
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "UnknownBackendError",
    "available_backends",
    "check_backend",
    "default_backend",
]

_BACKENDS = ("compiled", "numpy")


class UnknownBackendError(ValueError):
    """Raised when a backend name is neither ``"compiled"`` nor
    ``"numpy"``; carries the nearest match as ``suggestion``, if any."""

    def __init__(self, name: str):
        import difflib  # (only ever needed on this error path)

        self.backend = name
        self.available = _BACKENDS
        matches = difflib.get_close_matches(str(name), self.available, n=1)
        self.suggestion = matches[0] if matches else None
        message = (
            f"unknown backend {name!r}; backends: {', '.join(self.available)}"
        )
        if self.suggestion:
            message += f" — did you mean {self.suggestion!r}?"
        super().__init__(message)


def available_backends() -> Tuple[str, ...]:
    """The backend names, sorted."""
    return _BACKENDS


def check_backend(name: str) -> str:
    """``name`` if it names a backend, else :class:`UnknownBackendError`."""
    if name not in _BACKENDS:
        raise UnknownBackendError(name)
    return name


# ---------------------------------------------------------------------------
# default backend
# ---------------------------------------------------------------------------

#: the process default; ``None`` until its first read, which takes
#: ``REPRO_BACKEND`` (default ``numpy``)
_default_backend: Optional[str] = None


class _DefaultBackendGuard:
    """Returned by :func:`default_backend`: the switch has already
    happened; entering the guard as a context manager arranges for the
    previous default to be restored on exit."""

    __slots__ = ("backend", "_previous")

    def __init__(self, backend: str, previous: Optional[str]):
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

    - ``default_backend()`` returns the current default's name; the
      first read takes ``REPRO_BACKEND`` and checks it.
    - ``default_backend("compiled")`` switches the default immediately and
      returns a guard usable as a context manager that restores the
      previous default on exit; ignoring the guard makes the switch
      permanent.
    """
    global _default_backend
    if name is None:
        if _default_backend is None:
            import os

            _default_backend = check_backend(
                os.environ.get("REPRO_BACKEND", "").strip() or "numpy"
            )
        return _default_backend
    check_backend(name)
    previous = _default_backend
    _default_backend = name
    return _DefaultBackendGuard(name, previous)
