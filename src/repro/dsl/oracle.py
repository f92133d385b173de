"""A semantics oracle for stencil definitions (used by tests only).

The three backends share one lowering (:mod:`repro.dsl.frontend`), so
their agreeing proves that lowering deterministic, not right. This module
executes the *definition function's AST* directly, point by point, in
NumPy scalar arithmetic, with the semantics the DSL promises:

- a PARALLEL statement is applied over its whole range before the next
  one starts (its right-hand side sees no point of its own update);
  FORWARD/BACKWARD computations do that level by level;
- ``if``/``elif``/``else`` evaluates its test **once**, where control
  reaches it, and the branches run where that value was true or false —
  whatever they assign;
- a tuple assignment reads every right-hand side, at every point, before
  it writes any target (``a, b = b, a`` swaps);
- offsets index the arrays handed in; temporaries start at zero.

Where a statement runs is not semantics but extent inference, which has
its own tests: each statement takes the extent the stencil object
inferred for the IR statement of the same source line and target.
Not covered: ``@function`` calls (no shipped stencil uses one).
"""

from __future__ import annotations

import ast
import functools
import inspect
import itertools
import operator
import textwrap
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dsl.backend_numpy import _CALL_FUNCS, GridBounds, region_ranges
from repro.dsl.builtins import RegionSpec
from repro.dsl.extents import Extent

_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    # the array backends' own loops, not the scalar-math fast paths
    ast.Pow: np.power, ast.Mod: np.remainder, ast.FloorDiv: np.floor_divide,
}
_CMPOPS = {
    ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
    ast.GtE: operator.ge, ast.Eq: operator.eq, ast.NotEq: operator.ne,
}
_AXES = {"I_INDEX": 0, "J_INDEX": 1, "K_INDEX": 2}
Point = Tuple[int, int, int]


class _Oracle:
    def __init__(self, stencil, fields, scalars, origin, domain, bounds):
        func = stencil._func
        self.tree = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
        self.line0 = inspect.getsourcelines(func)[1] - 1
        self.names = {**func.__globals__, **stencil.externals}
        if func.__closure__:
            self.names.update(
                zip(func.__code__.co_freevars,
                    (c.cell_contents for c in func.__closure__))
            )
        defn = stencil.definition
        self.domain, self.bounds = domain, bounds or GridBounds()
        self.scalars = dict(scalars)
        self.locals: Dict[str, object] = {}
        self.axes = {p.name: p.field_type.axes for p in defn.field_params}
        self.arrays = dict(fields)
        self.origins = {name: origin for name in fields}
        ni, nj, nk = domain
        for name in defn.temporaries:
            e = stencil.extents.field_extents.get(name, Extent.zero())
            self.arrays[name] = np.zeros(
                (ni - e.i_lo + e.i_hi, nj - e.j_lo + e.j_hi,
                 nk - e.k_lo + e.k_hi)
            )
            self.origins[name] = (-e.i_lo, -e.j_lo, -e.k_lo)
            self.axes[name] = "IJK"
        self.extents: Dict[Tuple[int, str], Extent] = {}
        for stmt, ext in zip(defn.statements(), stencil.extents.stmt_extents):
            key = (stmt.lineno, stmt.target.name)
            self.extents[key] = self.extents.get(key, ext).union(ext)

    # ---- structure -------------------------------------------------------

    def run(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Expr):
                continue  # docstring
            order, span, body = None, None, node.body
            for item in node.items:
                call = item.context_expr
                if call.func.id == "computation":
                    order = call.args[0].id
                else:
                    span = self._interval(call)
            blocks = [(span, body)] if span else [
                (self._interval(w.items[0].context_expr), w.body) for w in body
            ]
            for (k0, k1), stmts in blocks:
                if k0 >= k1:
                    continue
                levels = {
                    "PARALLEL": [(k0, k1)],
                    "FORWARD": [(k, k + 1) for k in range(k0, k1)],
                    "BACKWARD": [(k, k + 1) for k in range(k1 - 1, k0 - 1, -1)],
                }[order]
                for krng in levels:
                    self._block(stmts, krng, None, None)

    def _interval(self, call) -> Tuple[int, int]:
        nk = self.domain[2]
        args = [eval(compile(ast.Expression(a), "<oracle>", "eval"), self.names)
                for a in call.args]
        if args == [Ellipsis]:
            return 0, nk
        lo, hi = (nk + v if v is not None and v < 0 else v for v in args)
        return max(lo or 0, 0), min(nk if hi is None else hi, nk)

    def _ranges(self, node, name, region):
        """Where the assignment ``node`` to ``name`` runs (or ``None``)."""
        ext = self.extents.get((self.line0 + node.lineno, name))
        if ext is None:
            return None
        ni, nj, _ = self.domain
        if region is not None:
            return region_ranges(region, self.domain, self.bounds, ext)
        return (ext.i_lo, ni + ext.i_hi), (ext.j_lo, nj + ext.j_hi)

    def _hull(self, stmts, region):
        """Bounding ranges of every assignment below ``stmts``."""
        found = []
        for node in stmts:
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                found.extend(self._ranges(node, name, region)
                             for name, _ in self._writes(node))
            elif isinstance(node, ast.If):
                found.append(self._hull(node.body + node.orelse, region))
            elif isinstance(node, ast.With):
                found.append(self._hull(node.body, self._region(node)))
        found = [r for r in found if r is not None]
        if not found:
            return None
        return tuple(
            (min(r[d][0] for r in found), max(r[d][1] for r in found))
            for d in (0, 1)
        )

    def _region(self, node) -> RegionSpec:
        (arg,) = node.items[0].context_expr.args
        return eval(compile(ast.Expression(arg), "<oracle>", "eval"), self.names)

    @staticmethod
    def _points(ranges, krng, active):
        pts = itertools.product(*(range(*r) for r in (*ranges, krng)))
        return [p for p in pts if active is None or p in active]

    def _block(self, stmts, krng, active, region) -> None:
        for node in stmts:
            if isinstance(node, ast.If):
                hull = self._hull(node.body + node.orelse, region)
                if hull is None:
                    continue
                # the test, once, at every point control reaches
                held = {p: bool(self._eval(node.test, p))
                        for p in self._points(hull, krng, active)}
                self._block(node.body, krng,
                            {p for p, c in held.items() if c}, region)
                self._block(node.orelse, krng,
                            {p for p, c in held.items() if not c}, region)
            elif isinstance(node, ast.With):
                self._block(node.body, krng, active, self._region(node))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._assign(node, krng, active, region)
            elif not isinstance(node, (ast.Pass, ast.Expr)):
                raise NotImplementedError(type(node).__name__)

    @staticmethod
    def _writes(node):
        """(target name, value) of every name an assignment writes."""
        if isinstance(node, ast.AugAssign):
            return [(node.target.id,
                     ast.BinOp(node.target, node.op, node.value))]
        (target,) = node.targets
        if isinstance(target, ast.Name):
            return [(target.id, node.value)]
        if not isinstance(node.value, ast.Tuple):
            raise NotImplementedError("@function call")
        return [(t.id, v) for t, v in zip(target.elts, node.value.elts)]

    def _assign(self, node, krng, active, region) -> None:
        updates = []  # every value, then every update
        for name, value in self._writes(node):
            if name not in self.arrays:  # a scalar local
                updates.append((self.locals, name, self._eval(value, None)))
                continue
            ranges = self._ranges(node, name, region)
            if ranges is None:
                continue
            updates.extend(
                (self.arrays[name], self._index(name, p), self._eval(value, p))
                for p in self._points(ranges, krng, active)
            )
        for store, key, value in updates:
            store[key] = value

    # ---- values ----------------------------------------------------------

    def _index(self, name, p: Point, offset=(0, 0, 0)):
        o = self.origins[name]
        return tuple(o[d] + p[d] + offset[d]
                     for d in range(3) if "IJK"[d] in self.axes[name])

    def _const_int(self, node) -> int:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._const_int(node.operand)
        return node.value if isinstance(node, ast.Constant) \
            else int(self.names[node.id])

    def _eval(self, node, p: Optional[Point]):
        ev = lambda n: self._eval(n, p)  # noqa: E731
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            name = node.id
            if name in _AXES:
                return np.int64(p[_AXES[name]])
            if name in self.arrays:
                return self.arrays[name][self._index(name, p)]
            for space in (self.scalars, self.locals, self.names):
                if name in space:
                    return space[name]
            raise NameError(name)
        if isinstance(node, ast.Subscript):
            elts = node.slice.elts if isinstance(node.slice, ast.Tuple) \
                else [node.slice]
            offset = [self._const_int(e) for e in elts] + [0, 0]
            return self.arrays[node.value.id][
                self._index(node.value.id, p, offset[:3])
            ]
        if isinstance(node, ast.BinOp):
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return not ev(node.operand)
            value = ev(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.Compare):
            values = [ev(node.left)] + [ev(c) for c in node.comparators]
            return all(_CMPOPS[type(op)](a, b)
                       for op, a, b in zip(node.ops, values, values[1:]))
        if isinstance(node, ast.BoolOp):
            values = [bool(ev(v)) for v in node.values]
            return all(values) if isinstance(node.op, ast.And) else any(values)
        if isinstance(node, ast.IfExp):
            return ev(node.body) if ev(node.test) else ev(node.orelse)
        if isinstance(node, ast.Call) and node.func.id in _CALL_FUNCS:
            fn, args = _CALL_FUNCS[node.func.id], [ev(a) for a in node.args]
            # n-ary min/max fold from the left
            return fn(*args) if len(args) == 1 else functools.reduce(fn, args)
        raise NotImplementedError(ast.dump(node))


def run_oracle(stencil, fields, scalars=None, *, origin, domain,
               bounds: Optional[GridBounds] = None) -> None:
    """Apply ``stencil`` (a :class:`~repro.dsl.stencil.StencilObject`) to
    ``fields`` in place, by the semantics in the module docstring."""
    with np.errstate(all="ignore"):
        _Oracle(stencil, fields, scalars or {}, origin, domain, bounds).run()
