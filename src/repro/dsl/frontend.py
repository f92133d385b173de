"""Frontend: parse decorated Python functions into the stencil IR.

The parser understands the GT4Py-style subset of Python described in the
paper (Sec. III-A, IV):

- ``with computation(PARALLEL|FORWARD|BACKWARD)`` blocks,
- ``with interval(a, b)`` vertical restrictions,
- ``with horizontal(region[...])`` sub-domain restrictions (Sec. IV-B),
- assignments with relative offsets ``field[di, dj, dk]``,
- ``if``/``elif``/``else`` on field expressions (the test is evaluated
  once into a temporary; the branches are lowered to masks on its value),
- compile-time external constants (folded to literals).

Variable offsets are rejected, matching the concession in Sec. IV-D.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._astsync import AST_LOCK
from repro.dsl import builtins as dsl_builtins
from repro.dsl.builtins import (
    BACKWARD,
    FORWARD,
    MATH_BUILTINS,
    PARALLEL,
    RegionSpec,
)
from repro.dsl.ir import (
    Assign,
    AxisBound,
    AxisIndexExpr,
    BinOp,
    Call,
    Computation,
    Expr,
    FieldAccess,
    Interval,
    IntervalBlock,
    Literal,
    ParamDecl,
    ScalarRef,
    StencilDef,
    Ternary,
    UnaryOp,
    shift_expr,
    walk_expr,
)
from repro.dsl.types import (
    FieldType,
    field_type_from_annotation,
    scalar_dtype_from_annotation,
)


class StencilSyntaxError(SyntaxError):
    """Raised when a stencil definition uses unsupported constructs."""


_BINOPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.Pow: "**",
    ast.Mod: "%",
    ast.FloorDiv: "//",
}

_CMPOPS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}

_AXIS_INDEX_NAMES = {"I_INDEX": "I", "J_INDEX": "J", "K_INDEX": "K"}

_ORDERS = {"PARALLEL": PARALLEL, "FORWARD": FORWARD, "BACKWARD": BACKWARD}


def _get_func_ast(func) -> ast.FunctionDef:
    source = textwrap.dedent(inspect.getsource(func))
    with AST_LOCK:  # ast<->object conversion is not thread-safe on 3.11
        tree = ast.parse(source)
    node = tree.body[0]
    if not isinstance(node, ast.FunctionDef):
        raise StencilSyntaxError("expected a function definition")
    return node


def _make_interval(args: Tuple) -> Interval:
    """Build an interval from evaluated ``interval(...)`` arguments."""
    if len(args) == 1 and args[0] is Ellipsis:
        return Interval.full()
    if len(args) != 2:
        raise StencilSyntaxError(
            "interval() takes '...' or (start, end) arguments"
        )
    start, end = args

    def bound(value, is_end: bool) -> AxisBound:
        if value is None:
            return AxisBound("end" if is_end else "start", 0)
        value = int(value)
        if value < 0:
            return AxisBound("end", value)
        if is_end and value == 0:
            raise StencilSyntaxError("interval end of 0 selects nothing")
        return AxisBound("start", value)

    return Interval(bound(start, False), bound(end, True))


class StencilParser:
    """Parses one stencil definition into a :class:`StencilDef`."""

    def __init__(self, func, externals: Optional[Dict] = None):
        self.func = func
        self.externals = dict(externals or {})
        self.globals = dict(getattr(func, "__globals__", {}))
        closure = getattr(func, "__closure__", None)
        if closure:
            for name, cell in zip(func.__code__.co_freevars, closure):
                try:
                    self.globals[name] = cell.cell_contents
                except ValueError:  # pragma: no cover - unfilled cell
                    pass
        self.node = _get_func_ast(func)
        self.params: List[ParamDecl] = []
        self.param_kinds: Dict[str, str] = {}
        self.temporaries: Dict[str, FieldType] = {}
        self.scalar_locals: Dict[str, Expr] = {}
        self.computations: List[Computation] = []
        self._condition_counter = 0
        self._tuple_counter = 0
        # absolute source location: ast linenos are relative to the
        # dedented snippet, so offset by the function's first source line
        try:
            self.source_file = inspect.getsourcefile(func)
            _, first_line = inspect.getsourcelines(func)
        except (OSError, TypeError):  # pragma: no cover - e.g. exec'd source
            self.source_file, first_line = None, 1
        self._lineno_base = first_line - 1
        self._current_lineno: Optional[int] = None
        self._parse_signature()

    def _abs_lineno(self, node) -> Optional[int]:
        lineno = getattr(node, "lineno", None)
        return None if lineno is None else self._lineno_base + lineno

    # ---- signature -----------------------------------------------------

    def _parse_signature(self) -> None:
        args = self.node.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
            raise StencilSyntaxError(
                "stencils take plain positional-or-keyword parameters only"
            )
        try:
            # resolve stringified annotations (PEP 563 modules)
            sig = inspect.signature(self.func, eval_str=True)
        except (NameError, TypeError):
            sig = inspect.signature(self.func)
        for name, param in sig.parameters.items():
            annotation = (
                None
                if param.annotation is inspect.Parameter.empty
                else param.annotation
            )
            ftype = field_type_from_annotation(annotation)
            if ftype is not None:
                self.params.append(ParamDecl(name, ftype))
                self.param_kinds[name] = "field"
            else:
                dtype = scalar_dtype_from_annotation(annotation)
                self.params.append(ParamDecl(name, None, dtype))
                self.param_kinds[name] = "scalar"

    # ---- top level -------------------------------------------------------

    def parse(self) -> StencilDef:
        body = list(self.node.body)
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]  # docstring
        for stmt in body:
            if not isinstance(stmt, ast.With):
                raise StencilSyntaxError(
                    f"line {stmt.lineno}: only 'with computation(...)' blocks "
                    "may appear at stencil top level"
                )
            self._parse_computation_with(stmt)
        return StencilDef(
            name=self.func.__name__,
            params=self.params,
            temporaries=self.temporaries,
            computations=self.computations,
            source_file=self.source_file,
            source_line=self._lineno_base + self.node.lineno,
        )

    def _parse_computation_with(self, node: ast.With) -> None:
        order: Optional[str] = None
        interval: Optional[Interval] = None
        for item in node.items:
            call = item.context_expr
            kind = self._with_item_kind(call)
            if kind == "computation":
                order = self._eval_order(call.args)
            elif kind == "interval":
                interval = _make_interval(self._eval_args(call.args))
            else:
                raise StencilSyntaxError(
                    f"line {node.lineno}: unexpected context manager in "
                    "computation header"
                )
        if order is None:
            raise StencilSyntaxError(
                f"line {node.lineno}: computation(...) missing"
            )
        comp = Computation(order=order, intervals=[])
        if interval is not None:
            block = IntervalBlock(interval=interval, body=[])
            comp.intervals.append(block)
            self._parse_statements(node.body, block.body, mask=None, region=None)
        else:
            # body must consist of `with interval(...)` blocks
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.With)
                    and len(stmt.items) == 1
                    and self._with_item_kind(stmt.items[0].context_expr)
                    == "interval"
                ):
                    raise StencilSyntaxError(
                        f"line {stmt.lineno}: computation without an inline "
                        "interval must contain only 'with interval(...)' blocks"
                    )
                iv = _make_interval(
                    self._eval_args(stmt.items[0].context_expr.args)
                )
                block = IntervalBlock(interval=iv, body=[])
                comp.intervals.append(block)
                self._parse_statements(
                    stmt.body, block.body, mask=None, region=None
                )
        self.computations.append(comp)

    @staticmethod
    def _with_item_kind(call) -> str:
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            if call.func.id in ("computation", "interval", "horizontal"):
                return call.func.id
        raise StencilSyntaxError(
            f"line {call.lineno}: unsupported context manager"
        )

    def _eval_order(self, args) -> str:
        if len(args) != 1 or not isinstance(args[0], ast.Name):
            raise StencilSyntaxError("computation() takes one policy argument")
        name = args[0].id
        if name not in _ORDERS:
            raise StencilSyntaxError(f"unknown iteration policy {name!r}")
        return _ORDERS[name]

    def _eval_args(self, args) -> Tuple:
        """Evaluate interval()/region arguments in the external namespace."""
        namespace = dict(self.globals)
        namespace.update(self.externals)
        out = []
        for arg in args:
            with AST_LOCK:
                code = compile(ast.Expression(body=arg), "<stencil>", "eval")
            out.append(eval(code, namespace))  # noqa: S307 - own source
        return tuple(out)

    # ---- statements ------------------------------------------------------

    def _parse_statements(
        self,
        stmts: List[ast.stmt],
        out: List[Assign],
        mask: Optional[Expr],
        region: Optional[RegionSpec],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._parse_assign(stmt, out, mask, region)
            elif isinstance(stmt, ast.If):
                self._current_lineno = self._abs_lineno(stmt)
                cond = self._parse_expr(stmt.test)
                if _reads_fields(cond):
                    # the test is evaluated once, into a temporary of its
                    # own (wherever the enclosing masks point: nothing
                    # reads it elsewhere), and both branches are masked
                    # by that value — a body that assigns a name its test
                    # reads does not move its own mask
                    self._condition_counter += 1
                    held = f"__if{self._condition_counter}"
                    self._emit_assign(held, cond, out, None, region)
                    cond = BinOp("!=", FieldAccess(held), Literal(0.0))
                then_mask = cond if mask is None else BinOp("and", mask, cond)
                self._parse_statements(stmt.body, out, then_mask, region)
                if stmt.orelse:
                    not_cond = UnaryOp("not", cond)
                    else_mask = (
                        not_cond
                        if mask is None
                        else BinOp("and", mask, not_cond)
                    )
                    self._parse_statements(stmt.orelse, out, else_mask, region)
            elif isinstance(stmt, ast.With):
                if len(stmt.items) != 1 or (
                    self._with_item_kind(stmt.items[0].context_expr)
                    != "horizontal"
                ):
                    raise StencilSyntaxError(
                        f"line {stmt.lineno}: only 'with horizontal(...)' may "
                        "be nested inside a computation"
                    )
                call = stmt.items[0].context_expr
                if len(call.args) != 1:
                    raise StencilSyntaxError(
                        "horizontal() takes one region argument"
                    )
                (spec,) = self._eval_args(call.args)
                if not isinstance(spec, RegionSpec):
                    raise StencilSyntaxError(
                        "horizontal() argument must be region[...]"
                    )
                if region is not None:
                    raise StencilSyntaxError("nested horizontal regions")
                self._parse_statements(stmt.body, out, mask, spec)
            elif isinstance(stmt, ast.Pass):
                continue
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # stray docstring
            else:
                raise StencilSyntaxError(
                    f"line {stmt.lineno}: unsupported statement "
                    f"{type(stmt).__name__}"
                )

    @staticmethod
    def _target_names(target) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, ast.Tuple) and all(
            isinstance(e, ast.Name) for e in target.elts
        ):
            return [e.id for e in target.elts]
        raise StencilSyntaxError(
            f"line {target.lineno}: assignment targets must be names"
        )

    def _parse_assign(self, stmt, out, mask, region) -> None:
        self._current_lineno = self._abs_lineno(stmt)
        names = self._target_names(stmt.targets[0])
        if len(stmt.targets) != 1:
            raise StencilSyntaxError("chained assignment is unsupported")
        values = self._parse_rhs(stmt.value, len(names))
        # every right-hand side is read before any target is written: a
        # value that reads a target assigned ahead of it is held in a
        # temporary first (``a, b = b, a``)
        for i, value in enumerate(values):
            if _reads_fields(value, names[:i]):
                self._tuple_counter += 1
                held = f"__tuple{self._tuple_counter}"
                self._emit_assign(held, value, out, mask, region)
                values[i] = FieldAccess(held)
        for name, value in zip(names, values):
            self._emit_assign(name, value, out, mask, region)

    def _parse_rhs(self, value, n_targets) -> List[Expr]:
        """Parse an assignment RHS: one expression per target."""
        if isinstance(value, ast.Tuple):
            if len(value.elts) != n_targets:
                raise StencilSyntaxError("tuple assignment arity mismatch")
            return [self._parse_expr(e) for e in value.elts]
        if n_targets != 1:
            raise StencilSyntaxError("cannot unpack a scalar expression")
        return [self._parse_expr(value)]

    def _emit_assign(self, name, value, out, mask, region) -> None:
        kind = self._classify_target(name, value, mask, region)
        if kind == "scalar_local":
            # pure scalar computation: tracked symbolically and folded into
            # later expressions (no storage allocated).
            self.scalar_locals[name] = value
            return
        out.append(
            Assign(
                target=FieldAccess(name),
                value=value,
                mask=mask,
                region=region,
                lineno=self._current_lineno,
            )
        )

    def _classify_target(self, name, value, mask, region) -> str:
        if self.param_kinds.get(name) == "field":
            return "field"
        if self.param_kinds.get(name) == "scalar":
            raise StencilSyntaxError(
                f"cannot assign to scalar parameter {name!r}"
            )
        if name in self.temporaries:
            return "field"
        if name in self.scalar_locals:
            if _is_scalar_expr(value) and mask is None and region is None:
                return "scalar_local"
            raise StencilSyntaxError(
                f"local {name!r} was scalar but is reassigned a field value; "
                "introduce a separate temporary"
            )
        # first assignment decides the kind
        if _is_scalar_expr(value) and mask is None and region is None:
            return "scalar_local"
        self.temporaries[name] = FieldType(axes="IJK", dtype=np.float64)
        return "field"

    # ---- expressions -------------------------------------------------------

    def _name_expr(self, name) -> Expr:
        if name in _AXIS_INDEX_NAMES:
            return AxisIndexExpr(_AXIS_INDEX_NAMES[name])
        kind = self.param_kinds.get(name)
        if kind == "field":
            return FieldAccess(name)
        if kind == "scalar":
            return ScalarRef(name)
        if name in self.temporaries:
            return FieldAccess(name)
        if name in self.scalar_locals:
            return self.scalar_locals[name]
        value = self._lookup_external(name)
        if value is not None:
            return Literal(value)
        raise StencilSyntaxError(f"unknown symbol {name!r} in stencil body")

    def _lookup_external(self, name: str):
        for space in (self.externals, self.globals):
            if name in space:
                value = space[name]
                if isinstance(value, (bool, int, float, np.generic)):
                    return float(value) if isinstance(value, float) else value
        return None

    def _parse_expr(self, node) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (bool, int, float)):
                return Literal(node.value)
            raise StencilSyntaxError(f"unsupported literal {node.value!r}")
        if isinstance(node, ast.Name):
            return self._name_expr(node.id)
        if isinstance(node, ast.Subscript):
            return self._parse_subscript(node)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise StencilSyntaxError(
                    f"unsupported binary operator {type(node.op).__name__}"
                )
            return BinOp(
                op,
                self._parse_expr(node.left),
                self._parse_expr(node.right),
            )
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                operand = self._parse_expr(node.operand)
                if isinstance(operand, Literal):
                    return Literal(-operand.value)
                return UnaryOp("-", operand)
            if isinstance(node.op, ast.UAdd):
                return self._parse_expr(node.operand)
            if isinstance(node.op, ast.Not):
                return UnaryOp(
                    "not",
                    self._parse_expr(node.operand),
                )
            raise StencilSyntaxError("unsupported unary operator")
        if isinstance(node, ast.Compare):
            left = self._parse_expr(node.left)
            result = None
            for op_node, comparator in zip(node.ops, node.comparators):
                op = _CMPOPS.get(type(op_node))
                if op is None:
                    raise StencilSyntaxError("unsupported comparison operator")
                right = self._parse_expr(comparator)
                cmp = BinOp(op, left, right)
                result = cmp if result is None else BinOp("and", result, cmp)
                left = right
            return result
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            exprs = [
                self._parse_expr(v)
                for v in node.values
            ]
            result = exprs[0]
            for e in exprs[1:]:
                result = BinOp(op, result, e)
            return result
        if isinstance(node, ast.IfExp):
            return Ternary(
                self._parse_expr(node.test),
                self._parse_expr(node.body),
                self._parse_expr(node.orelse),
            )
        if isinstance(node, ast.Call):
            return self._parse_call(node)
        raise StencilSyntaxError(
            f"line {node.lineno}: unsupported expression "
            f"{type(node).__name__}"
        )

    def _parse_subscript(self, node) -> Expr:
        if not isinstance(node.value, ast.Name):
            raise StencilSyntaxError("only fields may be subscripted")
        name = node.value.id
        base = self._name_expr(name)
        offset = self._parse_offset(node.slice, name)
        return shift_expr(base, offset)

    def _parse_offset(self, slice_node, name: str) -> Tuple[int, int, int]:
        elems = (
            list(slice_node.elts)
            if isinstance(slice_node, ast.Tuple)
            else [slice_node]
        )
        if len(elems) == 1:
            elems = elems + [ast.Constant(0), ast.Constant(0)]
        if len(elems) != 3:
            raise StencilSyntaxError(
                f"field {name!r} subscript must have 1 or 3 offsets"
            )
        offsets = []
        for e in elems:
            value = self._const_int(e)
            if value is None:
                raise StencilSyntaxError(
                    f"field {name!r}: offsets must be integer constants "
                    "(variable offsets are unsupported, Sec. IV-D)"
                )
            offsets.append(value)
        return tuple(offsets)

    def _const_int(self, node) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._const_int(node.operand)
            return None if inner is None else -inner
        if isinstance(node, ast.Name):
            value = self._lookup_external(node.id)
            if isinstance(value, (int, np.integer)) and not isinstance(
                value, bool
            ):
                return int(value)
        return None

    def _parse_call(self, node) -> Expr:
        if not isinstance(node.func, ast.Name):
            raise StencilSyntaxError("only simple calls are supported")
        fname = node.func.id
        if fname not in MATH_BUILTINS:
            raise StencilSyntaxError(f"unknown function {fname!r}")
        args = tuple(
            self._parse_expr(a)
            for a in node.args
        )
        if fname in ("min", "max") and len(args) > 2:
            result = args[0]
            for a in args[1:]:
                result = Call(fname, (result, a))
            return result
        return Call(fname, args)

def _is_scalar_expr(expr: Expr) -> bool:
    """True if an expression reads no fields and no axis indices."""
    return not any(
        isinstance(node, (FieldAccess, AxisIndexExpr))
        for node in walk_expr(expr)
    )


def _reads_fields(expr: Expr, names=None) -> bool:
    """True if ``expr`` reads a field (one of ``names``, when given)."""
    return any(
        isinstance(node, FieldAccess) and (names is None or node.name in names)
        for node in walk_expr(expr)
    )


def parse_stencil(func, externals: Optional[Dict] = None) -> StencilDef:
    """Parse a decorated Python function into a :class:`StencilDef`."""
    return StencilParser(func, externals).parse()
