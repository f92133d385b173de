"""Pure-NumPy stencil backend.

This is the paper's "pure-Python backend ... ideal for rapid prototyping,
debugging and interactive visualization" (Sec. I). Each statement is a
vectorized full-domain sweep; FORWARD/BACKWARD computations iterate levels
sequentially so vertical solvers can consume previously computed levels.
It defines the reference semantics that the lowered SDFG — its NumPy
emission and the compiled backend — must match bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dsl.builtins import BACKWARD, FORWARD, RegionSpec
from repro.dsl.extents import Extent, StencilExtents, compute_extents
from repro.dsl.ir import (
    Assign,
    AxisIndexExpr,
    BinOp,
    Call,
    Expr,
    FieldAccess,
    Literal,
    ScalarRef,
    StencilDef,
    Ternary,
    UnaryOp,
)

_CALL_FUNCS = {
    "sqrt": np.sqrt,
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "asin": np.arcsin,
    "acos": np.arccos,
    "atan": np.arctan,
    "floor": np.floor,
    "ceil": np.ceil,
    "trunc": np.trunc,
    "min": np.minimum,
    "max": np.maximum,
    "sign": np.sign,
}


@dataclasses.dataclass
class GridBounds:
    """Local-to-global placement of the compute domain within its tile.

    Horizontal regions (Sec. IV-B) are anchored at *tile* edges; in
    distributed runs each rank passes its subdomain's global origin and the
    tile shape so anchors resolve correctly (Sec. IV-B: "the DSL needs to
    resolve which other ranks to synchronize with based on the ranges").
    """

    origin: Tuple[int, int] = (0, 0)
    tile_shape: Optional[Tuple[int, int]] = None

    def resolve(self, domain: Tuple[int, int, int]) -> "GridBounds":
        if self.tile_shape is None:
            return GridBounds(self.origin, (domain[0], domain[1]))
        return self


def _anchor_global(anchor, tile_shape: Tuple[int, int]) -> int:
    """Global tile index denoted by an AxisAnchor (i_end = last point)."""
    size = tile_shape[0] if anchor.axis == "i" else tile_shape[1]
    base = 0 if anchor.side == "start" else size - 1
    return base + anchor.offset


def region_ranges(
    region: RegionSpec,
    domain: Tuple[int, int, int],
    bounds: GridBounds,
    ext: Extent,
) -> Optional[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Intersect a region with a statement's extended local range.

    Returns per-axis half-open local compute-index ranges, or ``None``
    when the intersection is empty on this rank.
    """
    bounds = bounds.resolve(domain)
    gi, gj = bounds.origin
    tile = bounds.tile_shape
    out = []
    for axis, (g0, n, lo, hi) in enumerate(
        (
            (gi, domain[0], ext.i_lo, ext.i_hi),
            (gj, domain[1], ext.j_lo, ext.j_hi),
        )
    ):
        spec = region.i if axis == 0 else region.j
        glo, ghi = g0 + lo, g0 + n + hi  # statement range in global indices
        if not spec.is_full:
            if spec.single:
                point = _anchor_global(spec.start, tile)
                glo, ghi = max(glo, point), min(ghi, point + 1)
            else:
                if spec.start is not None:
                    glo = max(glo, _anchor_global(spec.start, tile))
                if spec.stop is not None:
                    ghi = min(ghi, _anchor_global(spec.stop, tile))
        if glo >= ghi:
            return None
        out.append((glo - g0, ghi - g0))
    return tuple(out)


class _EvalContext:
    """Holds field arrays, scalars and slicing state during execution."""

    def __init__(
        self,
        stencil: StencilDef,
        extents: StencilExtents,
        fields: Dict[str, np.ndarray],
        scalars: Dict[str, float],
        origin: Tuple[int, int, int],
        domain: Tuple[int, int, int],
        bounds: GridBounds,
    ):
        self.stencil = stencil
        self.extents = extents
        self.fields = fields
        self.scalars = scalars
        self.origin = origin
        self.domain = domain
        self.bounds = bounds
        self.origins: Dict[str, Tuple[int, int, int]] = {}
        for name in fields:
            self.origins[name] = origin
        self._allocate_temporaries()

    def _allocate_temporaries(self) -> None:
        ni, nj, nk = self.domain
        for name, ftype in self.stencil.temporaries.items():
            ext = self.extents.field_extents.get(name, Extent.zero())
            shape = (
                ni - ext.i_lo + ext.i_hi,
                nj - ext.j_lo + ext.j_hi,
                nk - ext.k_lo + ext.k_hi,
            )
            self.fields[name] = np.zeros(shape, dtype=ftype.dtype)
            self.origins[name] = (-ext.i_lo, -ext.j_lo, -ext.k_lo)

    def field_axes(self, name: str) -> str:
        return self.stencil.field_type(name).axes

    def slice3d(
        self,
        name: str,
        offset: Tuple[int, int, int],
        irange: Tuple[int, int],
        jrange: Tuple[int, int],
        krange: Tuple[int, int],
    ) -> np.ndarray:
        """Read slice of a field over compute-index ranges (broadcast to 3D)."""
        arr = self.fields[name]
        oi, oj, ok = self.origins[name]
        axes = self.field_axes(name)
        di, dj, dk = offset
        slices = []
        if "I" in axes:
            slices.append(slice(oi + irange[0] + di, oi + irange[1] + di))
        if "J" in axes:
            slices.append(slice(oj + jrange[0] + dj, oj + jrange[1] + dj))
        if "K" in axes:
            slices.append(slice(ok + krange[0] + dk, ok + krange[1] + dk))
        view = arr[tuple(slices)]
        # broadcast missing axes
        if axes == "IJ":
            view = view[:, :, None]
        elif axes == "K":
            view = view[None, None, :]
        return view


def eval_expr(
    expr: Expr,
    ctx: _EvalContext,
    irange: Tuple[int, int],
    jrange: Tuple[int, int],
    krange: Tuple[int, int],
):
    """Evaluate an IR expression over the given compute-index ranges."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ScalarRef):
        return ctx.scalars[expr.name]
    if isinstance(expr, FieldAccess):
        return ctx.slice3d(expr.name, expr.offset, irange, jrange, krange)
    if isinstance(expr, AxisIndexExpr):
        if expr.axis == "I":
            return np.arange(irange[0], irange[1])[:, None, None]
        if expr.axis == "J":
            return np.arange(jrange[0], jrange[1])[None, :, None]
        return np.arange(krange[0], krange[1])[None, None, :]
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, ctx, irange, jrange, krange)
        right = eval_expr(expr.right, ctx, irange, jrange, krange)
        return _apply_binop(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        operand = eval_expr(expr.operand, ctx, irange, jrange, krange)
        return np.logical_not(operand) if expr.op == "not" else -operand
    if isinstance(expr, Call):
        args = [eval_expr(a, ctx, irange, jrange, krange) for a in expr.args]
        return _CALL_FUNCS[expr.func](*args)
    if isinstance(expr, Ternary):
        cond = eval_expr(expr.cond, ctx, irange, jrange, krange)
        then = eval_expr(expr.then, ctx, irange, jrange, krange)
        orelse = eval_expr(expr.orelse, ctx, irange, jrange, krange)
        return np.where(cond, then, orelse)
    raise TypeError(f"cannot evaluate {type(expr).__name__}")


def _apply_binop(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "**":
        return left**right
    if op == "%":
        return left % right
    if op == "//":
        return left // right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "and":
        return np.logical_and(left, right)
    if op == "or":
        return np.logical_or(left, right)
    raise ValueError(f"unknown operator {op!r}")


class NumpyStencilExecutor:
    """Executes a :class:`StencilDef` with NumPy semantics."""

    def __init__(self, stencil: StencilDef):
        from repro.obs import tracer as _obs

        self._tracer = _obs.get_tracer()
        self.stencil = stencil
        self.extents = compute_extents(stencil)
        self._stmt_extent: Dict[int, Extent] = {
            id(s): e
            for s, e in zip(stencil.statements(), self.extents.stmt_extents)
        }

    def __call__(
        self,
        fields: Dict[str, np.ndarray],
        scalars: Dict[str, float],
        origin: Tuple[int, int, int],
        domain: Tuple[int, int, int],
        bounds: Optional[GridBounds] = None,
    ) -> None:
        if self._tracer.enabled:
            with self._tracer.span("exec.numpy"):
                self._run(fields, scalars, origin, domain, bounds)
        else:
            self._run(fields, scalars, origin, domain, bounds)

    def _run(self, fields, scalars, origin, domain, bounds) -> None:
        ctx = _EvalContext(
            self.stencil,
            self.extents,
            dict(fields),
            scalars,
            origin,
            domain,
            bounds or GridBounds(),
        )
        nk = domain[2]
        for comp in self.stencil.computations:
            for block in comp.intervals:
                k0, k1 = block.interval.resolve(nk)
                k0, k1 = max(k0, 0), min(k1, nk)
                if k0 >= k1:
                    continue
                if comp.order == FORWARD:
                    for k in range(k0, k1):
                        self._run_statements(ctx, block.body, (k, k + 1))
                elif comp.order == BACKWARD:
                    for k in range(k1 - 1, k0 - 1, -1):
                        self._run_statements(ctx, block.body, (k, k + 1))
                else:
                    self._run_statements(ctx, block.body, (k0, k1))

    def _run_statements(
        self, ctx: _EvalContext, body, krange: Tuple[int, int]
    ) -> None:
        ni, nj, _ = ctx.domain
        for stmt in body:
            ext = self._stmt_extent[id(stmt)]
            irange = (ext.i_lo, ni + ext.i_hi)
            jrange = (ext.j_lo, nj + ext.j_hi)
            if stmt.region is not None:
                ranges = region_ranges(stmt.region, ctx.domain, ctx.bounds, ext)
                if ranges is None:
                    continue
                irange, jrange = ranges
            self._execute(ctx, stmt, irange, jrange, krange)

    def _execute(
        self,
        ctx: _EvalContext,
        stmt: Assign,
        irange: Tuple[int, int],
        jrange: Tuple[int, int],
        krange: Tuple[int, int],
    ) -> None:
        value = eval_expr(stmt.value, ctx, irange, jrange, krange)
        name = stmt.target.name
        axes = ctx.field_axes(name)
        target = ctx.slice3d(name, (0, 0, 0), irange, jrange, krange)
        if axes == "IJ" and krange[1] - krange[0] != 1:
            raise ValueError(
                f"cannot write 2D field {name!r} over a multi-level interval"
            )
        if stmt.mask is not None:
            mask = eval_expr(stmt.mask, ctx, irange, jrange, krange)
            value = np.where(mask, value, target)
        shape = (
            irange[1] - irange[0],
            jrange[1] - jrange[0],
            krange[1] - krange[0],
        )
        target[...] = np.broadcast_to(value, shape)


# self-registration: "numpy" resolves through the repro.dsl.backends
# registry, like any third-party backend would
from repro.dsl.backends import register_backend as _register_backend

_register_backend(
    "numpy",
    lambda stencil_object: NumpyStencilExecutor(stencil_object.definition),
    replace=True,
)
