"""The ``@stencil`` decorator and the callable StencilObject.

Decorating a function parses nothing: the stencil IR and its extents are
made on first use — the first call, trace or lint — once per stencil, and
backends are compiled lazily on first use of each. A process that restores
its programs from records never parses a stencil at all. The object also
exposes the hooks used by the orchestration layer (Sec. V-B):
``__sdfg_node__`` inserts the stencil into a whole-program SDFG as a
library node when a data-centric program calls it.
"""

from __future__ import annotations

import functools
import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro import resilience as _resilience
from repro.dsl import backends
from repro.dsl.backend_numpy import GridBounds
from repro.obs import tracer as _obs
from repro.resilience import chaos as _chaos

if TYPE_CHECKING:
    from repro.dsl.extents import StencilExtents
    from repro.dsl.ir import StencilDef

_TRACER = _obs.get_tracer()

#: the bit-exact debug backend failed compiled backends re-execute on
FALLBACK_BACKEND = "numpy"


class StencilObject:
    """A compiled, callable stencil."""

    def __init__(self, definition_func, backend: Optional[str] = None,
                 externals: Optional[Dict] = None, name: Optional[str] = None):
        self._func = definition_func
        self._backend_name = backend
        self.externals = dict(externals or {})
        self.name = name or definition_func.__name__
        #: ``(definition, extents)`` once parsed
        self._parsed: Optional[tuple] = None
        self._parse_lock = threading.Lock()
        #: (field, nk) → its exact k footprint (see :meth:`_validate`)
        self._k_bounds: Dict[Tuple[str, int], Optional[Tuple[int, int]]] = {}
        self._executors: Dict[str, object] = {}
        functools.update_wrapper(self, definition_func)

    # ------------------------------------------------------------------
    @property
    def definition(self) -> "StencilDef":
        """The stencil IR, parsed on first access."""
        return (self._parsed or self._parse())[0]

    @property
    def extents(self) -> "StencilExtents":
        return (self._parsed or self._parse())[1]

    def _parse(self) -> tuple:
        with self._parse_lock:
            if self._parsed is None:
                from repro.dsl.extents import compute_extents
                from repro.dsl.frontend import StencilSyntaxError, parse_stencil

                try:
                    definition = parse_stencil(self._func, self.externals)
                except StencilSyntaxError as exc:
                    raise StencilSyntaxError(
                        f"stencil {self.name!r}: {exc}"
                    ) from exc
                definition.name = self.name
                self._parsed = (definition, compute_extents(definition))
            return self._parsed

    @property
    def backend(self) -> str:
        return self._backend_name or backends.current_default_backend()

    @property
    def field_names(self):
        return [p.name for p in self.definition.field_params]

    @property
    def scalar_names(self):
        return [p.name for p in self.definition.scalar_params]

    @property
    def n_halo(self) -> int:
        """Maximum halo width any input field requires."""
        return self.extents.max_halo()

    def _executor(self, backend: str):
        executor = self._executors.get(backend)
        if executor is None:
            # raises UnknownBackendError (a ValueError) with the registry
            # contents and a nearest-match suggestion on bad names
            executor = backends.create_executor(backend, self)
            self._executors[backend] = executor
        return executor

    # ------------------------------------------------------------------
    def __call__(
        self,
        *args,
        origin: Optional[Tuple[int, int, int]] = None,
        domain: Optional[Tuple[int, int, int]] = None,
        bounds: Optional[GridBounds] = None,
        backend: Optional[str] = None,
        **kwargs,
    ) -> None:
        fields, scalars = self._bind_arguments(args, kwargs)
        origin, domain = self._resolve_domain(fields, origin, domain)
        self._validate(fields, origin, domain)
        backend_name = backend or self.backend
        if not _TRACER.enabled:
            self._execute(backend_name, fields, scalars, origin, domain,
                          bounds)
            return
        from repro.obs.metrics import stencil_traffic_bytes

        with _TRACER.span(f"stencil.{self.name}") as sp:
            self._execute(backend_name, fields, scalars, origin, domain,
                          bounds)
            ni, nj, nk = domain
            sp.add("points", ni * nj * nk)
            sp.add("bytes", stencil_traffic_bytes(self, fields, domain))
            sp.set("backend", backend_name)

    def _execute(self, backend_name, fields, scalars, origin, domain,
                 bounds) -> None:
        """Run on ``backend_name``; degrade to the NumPy debug backend
        when a compiled backend raises (real failure or injected
        ``compile.fail``). Executor *creation* errors (unknown backend
        names) stay outside the degraded path and propagate."""
        executor = self._executor(backend_name)
        try:
            executor(fields, scalars, origin, domain, bounds)
        except Exception as exc:
            if (
                backend_name == FALLBACK_BACKEND
                or not _resilience.fallback_enabled()
            ):
                raise
            _resilience.record_fallback(self.name, backend_name, exc)
            fallback = self._executor(FALLBACK_BACKEND)
            fallback(fields, scalars, origin, domain, bounds)
        if _chaos._PLAN is not None:
            _chaos.maybe_nanflip(self.name, {
                name: fields[name]
                for name in self.definition.written_fields() if name in fields
            })

    # ------------------------------------------------------------------
    def _bind_arguments(self, args, kwargs):
        params = self.definition.params
        if len(args) > len(params):
            raise TypeError(
                f"{self.name}: too many positional arguments "
                f"({len(args)} > {len(params)})"
            )
        bound = {p.name: a for p, a in zip(params, args)}
        for key, value in kwargs.items():
            if key in bound:
                raise TypeError(f"{self.name}: duplicate argument {key!r}")
            bound[key] = value
        fields: Dict[str, np.ndarray] = {}
        scalars: Dict[str, float] = {}
        for p in params:
            if p.name not in bound:
                raise TypeError(f"{self.name}: missing argument {p.name!r}")
            value = bound.pop(p.name)
            if p.is_field:
                arr = np.asarray(value)
                if arr.ndim != p.field_type.ndim:
                    raise TypeError(
                        f"{self.name}: field {p.name!r} must be "
                        f"{p.field_type.ndim}D (axes {p.field_type.axes}), "
                        f"got {arr.ndim}D"
                    )
                fields[p.name] = arr
            else:
                scalars[p.name] = value
        if bound:
            raise TypeError(
                f"{self.name}: unexpected arguments {sorted(bound)}"
            )
        return fields, scalars

    def _resolve_domain(self, fields, origin, domain):
        h = self.n_halo
        if origin is None:
            origin = (h, h, 0)
        if domain is None:
            for p in self.definition.field_params:
                if p.field_type.axes == "IJK":
                    s = fields[p.name].shape
                    domain = (
                        s[0] - origin[0] - h,
                        s[1] - origin[1] - h,
                        s[2] - origin[2],
                    )
                    break
            else:
                raise TypeError(
                    f"{self.name}: domain cannot be inferred without a 3D field"
                )
        if min(domain) < 1:
            raise ValueError(f"{self.name}: empty domain {domain}")
        return tuple(origin), tuple(domain)

    def _validate(self, fields, origin, domain) -> None:
        ni, nj, nk = domain
        for p in self.definition.field_params:
            arr = fields[p.name]
            ext = self.extents.field_extents.get(p.name)
            if ext is None:
                continue
            axes = p.field_type.axes
            req = []
            if "I" in axes:
                req.append((origin[0] + ext.i_lo, origin[0] + ni + ext.i_hi))
            if "J" in axes:
                req.append((origin[1] + ext.j_lo, origin[1] + nj + ext.j_hi))
            if "K" in axes:
                # exact per-interval vertical footprint: fields may have a
                # different k size than the domain (staggered interfaces)
                kb = self._k_footprint(p.name, nk)
                if kb is not None:
                    req.append((origin[2] + kb[0], origin[2] + kb[1]))
            for dim, (lo, hi) in enumerate(req):
                if lo < 0 or hi > arr.shape[dim]:
                    raise ValueError(
                        f"{self.name}: field {p.name!r} shape {arr.shape} "
                        f"cannot satisfy accesses [{lo}, {hi}) along axis "
                        f"{dim} for domain {domain} at origin {origin}"
                    )

    def _k_footprint(self, name: str, nk: int) -> Optional[Tuple[int, int]]:
        key = (name, nk)
        if key not in self._k_bounds:
            from repro.dsl.extents import k_access_bounds

            self._k_bounds[key] = k_access_bounds(self.definition, name, nk)
        return self._k_bounds[key]

    # ------------------------------------------------------------------
    # Orchestration hooks (Sec. V-B)
    # ------------------------------------------------------------------
    def __sdfg_node__(self):
        """Create a StencilComputation library node for this stencil."""
        from repro.sdfg.nodes import StencilComputation

        return StencilComputation.from_stencil(self)

    def __repr__(self) -> str:
        return f"StencilObject({self.name!r}, backend={self.backend!r})"


def stencil(func=None, *, backend: Optional[str] = None,
            externals: Optional[Dict] = None, name: Optional[str] = None):
    """Decorator turning a definition function into a compiled stencil.

    Usable bare (``@stencil``) or with options
    (``@stencil(backend="dataflow", externals={...})``).
    """
    if func is not None:
        return StencilObject(func)

    def wrapper(f):
        return StencilObject(f, backend=backend, externals=externals, name=name)

    return wrapper
