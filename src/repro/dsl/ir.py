"""Stencil definition IR.

The frontend lowers decorated Python functions into this representation:

- a :class:`StencilDef` holds parameter declarations, temporary fields and a
  list of :class:`Computation` blocks;
- each computation has a vertical iteration policy and a list of
  :class:`IntervalBlock` sections;
- each interval block holds flat :class:`Assign` statements. ``if``/``else``
  constructs are lowered to per-statement *masks*; ``with horizontal``
  restrictions are attached as per-statement *regions*.

This mirrors GT4Py's "Optimization IR" stage (Sec. V-A): a normalized,
analysis-friendly form in which temporaries, extents and fusion legality
can be computed without touching Python ASTs again.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from repro.dsl.builtins import RegionSpec
from repro.dsl.types import FieldType

Offset = Tuple[int, int, int]

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""


@dataclasses.dataclass(frozen=True)
class FieldAccess(Expr):
    """Read or write of a field at a constant relative offset."""

    name: str
    offset: Offset = (0, 0, 0)

    def shifted(self, delta: Offset) -> "FieldAccess":
        return FieldAccess(
            self.name, tuple(o + d for o, d in zip(self.offset, delta))
        )

    def __repr__(self) -> str:
        if self.offset == (0, 0, 0):
            return self.name
        return f"{self.name}[{self.offset[0]},{self.offset[1]},{self.offset[2]}]"


@dataclasses.dataclass(frozen=True)
class ScalarRef(Expr):
    """Reference to a runtime scalar parameter."""

    name: str

    def __repr__(self) -> str:
        return f"${self.name}"


@dataclasses.dataclass(frozen=True)
class Literal(Expr):
    value: Union[float, int, bool]

    def __repr__(self) -> str:
        return repr(self.value)


@dataclasses.dataclass(frozen=True)
class AxisIndexExpr(Expr):
    """The current index along an axis relative to the compute origin.

    Exposed in the DSL as reads of the reserved names ``K_INDEX`` (and
    friends); used by vertical solvers that need level numbers.
    """

    axis: str  # "I", "J" or "K"

@dataclasses.dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclasses.dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "-" or "not"
    operand: Expr

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


@dataclasses.dataclass(frozen=True)
class Call(Expr):
    func: str  # a MATH_BUILTINS name
    args: Tuple[Expr, ...]

    def __repr__(self) -> str:
        return f"{self.func}({', '.join(map(repr, self.args))})"


@dataclasses.dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    orelse: Expr

# --------------------------------------------------------------------------
# Statements, intervals, computations
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AxisBound:
    """A vertical bound anchored at the start or end of the K axis."""

    level: str  # "start" or "end"
    offset: int = 0

    def resolve(self, nk: int) -> int:
        base = 0 if self.level == "start" else nk
        return base + self.offset

    def __repr__(self) -> str:
        sign = "+" if self.offset >= 0 else "-"
        return f"{self.level}{sign}{abs(self.offset)}"


@dataclasses.dataclass(frozen=True)
class Interval:
    """Half-open vertical interval [start, end)."""

    start: AxisBound
    end: AxisBound

    @staticmethod
    def full() -> "Interval":
        return Interval(AxisBound("start"), AxisBound("end"))

    def resolve(self, nk: int) -> Tuple[int, int]:
        return self.start.resolve(nk), self.end.resolve(nk)

    def __repr__(self) -> str:
        return f"[{self.start!r}, {self.end!r})"


@dataclasses.dataclass(frozen=True)
class Assign:
    """A single stencil operation: ``target = value`` under optional
    mask (from ``if`` lowering) and region (from ``with horizontal``).

    ``lineno`` is the absolute line in the stencil's source file this
    statement was parsed from (the call site for inlined functions);
    transformations that rewrite statements preserve it so diagnostics
    point at user code, not at the rewritten IR.
    """

    target: FieldAccess
    value: Expr
    mask: Optional[Expr] = None
    region: Optional[RegionSpec] = None
    lineno: Optional[int] = None


@dataclasses.dataclass
class IntervalBlock:
    interval: Interval
    body: List[Assign]


@dataclasses.dataclass
class Computation:
    order: str  # PARALLEL / FORWARD / BACKWARD
    intervals: List[IntervalBlock]

    def statements(self) -> List[Assign]:
        return [s for block in self.intervals for s in block.body]


@dataclasses.dataclass(frozen=True)
class ParamDecl:
    name: str
    field_type: Optional[FieldType]  # None for scalars
    scalar_dtype: Optional[type] = None

    @property
    def is_field(self) -> bool:
        return self.field_type is not None


@dataclasses.dataclass
class StencilDef:
    """A fully lowered stencil definition."""

    name: str
    params: List[ParamDecl]
    temporaries: Dict[str, FieldType]
    computations: List[Computation]
    #: where the decorated definition function lives (for diagnostics)
    source_file: Optional[str] = None
    source_line: Optional[int] = None

    # ---- convenience queries -------------------------------------------

    @property
    def field_params(self) -> List[ParamDecl]:
        return [p for p in self.params if p.is_field]

    @property
    def scalar_params(self) -> List[ParamDecl]:
        return [p for p in self.params if not p.is_field]

    def statements(self) -> List[Assign]:
        return [s for c in self.computations for s in c.statements()]

    def written_fields(self) -> List[str]:
        seen: Dict[str, None] = {}
        for stmt in self.statements():
            seen.setdefault(stmt.target.name, None)
        return list(seen)


# --------------------------------------------------------------------------
# Visitors / rewriting helpers
# --------------------------------------------------------------------------


def walk_expr(expr: Expr):
    """Yield every node of an expression tree (pre-order)."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from walk_expr(a)
    elif isinstance(expr, Ternary):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.orelse)


def map_expr(expr: Expr, fn) -> Expr:
    """Rebuild an expression bottom-up, applying ``fn`` to each node.

    ``fn`` receives a node whose children have already been rewritten and
    returns its replacement.
    """
    if isinstance(expr, BinOp):
        expr = BinOp(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, UnaryOp):
        expr = UnaryOp(expr.op, map_expr(expr.operand, fn))
    elif isinstance(expr, Call):
        expr = Call(expr.func, tuple(map_expr(a, fn) for a in expr.args))
    elif isinstance(expr, Ternary):
        expr = Ternary(
            map_expr(expr.cond, fn),
            map_expr(expr.then, fn),
            map_expr(expr.orelse, fn),
        )
    return fn(expr)


def substitute_fields(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace zero-offset field reads by expressions; offset reads of
    substituted fields are shifted into the replacement (used by OTF
    fusion and function inlining)."""

    def repl(node: Expr) -> Expr:
        if isinstance(node, FieldAccess) and node.name in mapping:
            replacement = mapping[node.name]
            if node.offset == (0, 0, 0):
                return replacement
            return shift_expr(replacement, node.offset)
        return node

    return map_expr(expr, repl)


def shift_expr(expr: Expr, delta: Offset) -> Expr:
    """Shift every field access in ``expr`` by ``delta``."""

    def repl(node: Expr) -> Expr:
        if isinstance(node, FieldAccess):
            return node.shifted(delta)
        return node

    return map_expr(expr, repl)


def expr_reads(stmt: Assign) -> List[FieldAccess]:
    """All field accesses read by a statement (value + mask)."""
    reads = [n for n in walk_expr(stmt.value) if isinstance(n, FieldAccess)]
    if stmt.mask is not None:
        reads += [n for n in walk_expr(stmt.mask) if isinstance(n, FieldAccess)]
    # a masked assignment also reads its own target (to keep old values)
    if stmt.mask is not None:
        reads.append(stmt.target)
    return reads


#: cost of a general-purpose pow() call in flop-equivalents. Calibrated on
#: the paper's Smagorinsky case study (Sec. VI-C1): the double-precision
#: pow of CUDA's libdevice costs hundreds of cycles, enough to flip a
#: bandwidth-bound kernel to compute-bound (511 µs vs the 129 µs bound).
POW_COST = 300
TRANSCENDENTAL_COST = 150


def count_flops(expr: Expr) -> int:
    """Arithmetic-operation count of an expression in flop-equivalents."""
    total = 0
    for node in walk_expr(expr):
        if isinstance(node, BinOp):
            total += POW_COST if node.op == "**" else 1
        elif isinstance(node, UnaryOp):
            total += 1
        elif isinstance(node, Call):
            total += (
                TRANSCENDENTAL_COST
                if node.func in ("exp", "log", "sin", "cos", "tan")
                else 2
            )
    return total
