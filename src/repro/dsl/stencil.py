"""The ``@stencil`` decorator and the callable StencilObject.

Decorating a function parses nothing: the stencil IR and its extents are
made on first use — the first call, trace or lint — once per stencil. A
process that restores its programs from records never parses a stencil
at all.

A stencil called outside a program runs the way a program does: its
call is a StencilComputation library node in an SDFG of its own, expanded
and compiled through the shared program cache
(:mod:`repro.runtime.compile_cache`) into the plan of the backend asked
for — ``numpy``, the NumPy emission, the paper's pure-Python backend for
prototyping and debugging (Sec. I), or ``compiled``, whose fused kernels
are JITted scalar loop nests with the same evaluation order and
``fastmath`` off, so both give the same bits. One plan is kept per
(backend, field shapes and dtypes, origin, domain, bounds): the first
call of each pays one lowering.

Where no C compiler is usable a ``compiled`` request gets the NumPy
emission, warned once (:func:`~repro.runtime.compile_cache.get_or_compile`
decides that for stencils and programs alike). A ``compiled`` call that
fails is re-executed on :data:`FALLBACK_BACKEND` (:mod:`repro.resilience`),
which therefore does not consult ``compile.fail``: the failed call
consulted it already.
"""

from __future__ import annotations

import functools
import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro import resilience as _resilience
from repro.dsl import backends
from repro.dsl.bounds import GridBounds
from repro.obs import tracer as _obs
from repro.resilience import chaos as _chaos

if TYPE_CHECKING:
    from repro.dsl.extents import StencilExtents
    from repro.dsl.ir import StencilDef

_TRACER = _obs.get_tracer()

#: the backend a failed call re-executes on: the NumPy emission of the
#: same lowering, bit-identical to the compiled backend
FALLBACK_BACKEND = "numpy"


class StencilObject:
    """A compiled, callable stencil."""

    def __init__(self, definition_func, externals: Optional[Dict] = None):
        self._func = definition_func
        self.externals = dict(externals or {})
        self.name = definition_func.__name__
        #: ``(definition, extents)`` once parsed
        self._parsed: Optional[tuple] = None
        self._parse_lock = threading.Lock()
        #: (field, nk) → its exact k footprint (see :meth:`_validate`)
        self._k_bounds: Dict[Tuple[str, int], Optional[Tuple[int, int]]] = {}
        #: (backend, field shapes and dtypes, origin, domain, bounds) →
        #: its compiled plan
        self._plans: Dict[tuple, object] = {}
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
                self._parsed = (definition, compute_extents(definition))
            return self._parsed

    @property
    def n_halo(self) -> int:
        """Maximum halo width any input field requires."""
        return self.extents.max_halo()

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
        backend_name = (
            backends.check_backend(backend) if backend
            else backends.default_backend()
        )
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
        """Run on ``backend_name``; degrade to :data:`FALLBACK_BACKEND`
        when another backend raises (real failure or injected
        ``compile.fail``)."""
        try:
            self._run(backend_name, fields, scalars, origin, domain, bounds)
        except Exception as exc:
            if backend_name == FALLBACK_BACKEND:
                raise
            _resilience.record_fallback(self.name, backend_name, exc)
            self._run(FALLBACK_BACKEND, fields, scalars, origin, domain,
                      bounds)
        if _chaos._PLAN is not None:
            _chaos.maybe_nanflip(self.name, {
                name: fields[name]
                for name in self.definition.written_fields() if name in fields
            })

    def _run(self, backend, fields, scalars, origin, domain, bounds) -> None:
        """Call the plan of ``backend`` for this specialization, lowered
        and compiled on its first call."""
        key = (
            backend,
            tuple(sorted((n, a.shape, a.dtype.str) for n, a in fields.items())),
            origin,
            domain,
            (bounds.origin, bounds.tile_shape) if bounds else None,
        )
        plan = self._plans.get(key)
        if plan is None:
            from repro.runtime import compile_cache

            # lower + compile: traced separately so reports distinguish
            # one-time specialization cost from steady-state execution
            with _TRACER.span(f"exec.{backend}.compile"):
                sdfg = self.build_sdfg(
                    {n: a.shape for n, a in fields.items()},
                    {n: a.dtype.type for n, a in fields.items()},
                    origin,
                    domain,
                    bounds,
                )
                # the numpy backend does not consult compile.fail: a
                # failed compiled call re-runs there and consulted once
                get_or_compile = (
                    compile_cache._get_or_compile
                    if backend == FALLBACK_BACKEND
                    else compile_cache.get_or_compile
                )
                plan = get_or_compile(sdfg, backend)
            self._plans[key] = plan
        if _TRACER.enabled:
            with _TRACER.span(f"exec.{backend}"):
                plan(arrays=fields, scalars=scalars)
        else:
            plan(arrays=fields, scalars=scalars)

    def build_sdfg(
        self,
        shapes: Dict[str, Tuple[int, ...]],
        dtypes: Dict[str, type],
        origin: Tuple[int, int, int],
        domain: Tuple[int, int, int],
        bounds: Optional[GridBounds] = None,
    ):
        """One call of this stencil as an SDFG: a StencilComputation
        library node on containers of these shapes and dtypes, expanded."""
        from repro.sdfg.graph import SDFG
        from repro.sdfg.nodes import StencilComputation

        sdfg = SDFG(self.name)
        for p in self.definition.field_params:
            sdfg.add_array(
                p.name, shapes[p.name], dtypes[p.name], axes=p.field_type.axes
            )
        state = sdfg.add_state(self.name)
        node = StencilComputation(
            self.definition,
            self.extents,
            mapping={p.name: p.name for p in self.definition.field_params},
            domain=domain,
            origin=origin,
            scalar_mapping={
                p.name: p.name for p in self.definition.scalar_params
            },
            bounds=bounds,
        )
        state.add(node)
        sdfg.expand_library_nodes()
        return sdfg

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

def stencil(func=None, *, externals: Optional[Dict] = None):
    """Decorator turning a definition function into a compiled stencil.

    Usable bare (``@stencil``) or with the compile-time constants its
    definition reads (``@stencil(externals={...})``). A call runs on the
    process default backend, or on the one its ``backend=`` names.
    """
    if func is not None:
        return StencilObject(func)

    def wrapper(f):
        return StencilObject(f, externals=externals)

    return wrapper
