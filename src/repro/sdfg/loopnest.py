"""The loop-nest tree under the compiled backend, and its C printer.

:mod:`repro.sdfg.codegen_compiled` lowers each eligible kernel *once* to
the small tree defined here — every schedule decision (loop shape,
k-blocking, i-tiling, fusion clusters, region guards, the thread axis) is
an attribute or a node of the tree, and every value in it already carries
its scalar type tag. :func:`print_c` only turns the tree into text: it
reads nothing of the kernel or its schedule, so a new schedule rewrite is
written once, on the tree.

Structure nodes: :class:`Loop`, :class:`Strip`, :class:`Clamp`,
:class:`Guard`, :class:`Store`, :class:`Let`. Value nodes (typed ``"d"``
double, ``"l"`` int64, ``"b"`` bool): :class:`Lit`, :class:`Scalar`,
:class:`Axis`, :class:`Ref`, :class:`Reg`, :class:`Op`.

There is no masked statement: a conditional assignment is the
unconditional ``x = c ? v : x``. The lowering keeps every ``select`` in
the form a vectorizer turns into a blend instead of control flow — its
condition one comparison, its two values plain names or constants.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple, Union

from repro.sdfg.codegen import _SourceBuilder

#: a loop bound: a constant or the name of a variable an enclosing
#: :class:`Strip`/:class:`Clamp` defines
Bound = Union[int, str]

_CTYPE = {"d": "double", "l": "int64_t", "b": "unsigned char"}
_AXIS_VAR = {"I": ("i", 0), "J": ("j", 1), "K": ("k", 2)}


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Array:
    """One C-contiguous array argument of the kernel function."""

    param: str      # parameter name inside the generated function
    runtime: str    # driver-side variable passed at the call site
    axes: str
    origin: Tuple[int, int, int]
    shape: Tuple[int, ...]
    tag: str


@dataclasses.dataclass(frozen=True, slots=True)
class Lit:
    value: Union[bool, int, float]
    tag: str


@dataclasses.dataclass(frozen=True, slots=True)
class Scalar:
    """A run-time scalar argument (always passed as a double)."""

    name: str
    tag: str = "d"


@dataclasses.dataclass(frozen=True, slots=True)
class Axis:
    """The current value of loop variable ``var`` (``i``/``j``/``k``)."""

    var: str
    tag: str = "l"


@dataclasses.dataclass(frozen=True, slots=True)
class Ref:
    """The element of ``array`` at the current point plus ``offset``."""

    array: Array
    offset: Tuple[int, int, int] = (0, 0, 0)

    @property
    def tag(self) -> str:
        return self.array.tag


@dataclasses.dataclass(frozen=True, slots=True)
class Reg:
    """A per-point scalar: a kernel local that lives in a register."""

    name: str
    tag: str = "d"


@dataclasses.dataclass(frozen=True, slots=True)
class Op:
    """``op`` applied to typed ``args``; ``tag`` is the result type.

    Operators: ``and or not neg``, ``select`` (a truth value, then,
    else), ``cast`` (to ``tag``, NumPy's assignment conversion), the six
    comparisons,
    ``+ - * /``, ``sqrt abs floor ceil trunc min max sign``.
    """

    op: str
    args: tuple
    tag: str


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


@dataclasses.dataclass(slots=True)
class Loop:
    """``for var in [lo, hi)``, downwards when ``reverse``. ``parallel``
    marks the thread axis; ``tile`` asks for strip-mining by that many
    iterations (a locality hint: a printer may ignore it);
    ``independent`` says no iteration reads what another writes (a
    vectorizer need not version the loop on a run-time overlap test)."""

    var: str
    lo: Bound
    hi: Bound
    body: list
    reverse: bool = False
    parallel: bool = False
    tile: Optional[int] = None
    independent: bool = False


@dataclasses.dataclass(slots=True)
class Strip:
    """``for var in lo, lo + step, ... < hi`` with ``end`` bound to
    ``min(var + step, hi)`` inside: the outer loop of a blocked axis."""

    var: str
    end: str
    lo: Bound
    hi: Bound
    step: int
    body: list


@dataclasses.dataclass(slots=True)
class Clamp:
    """Bind ``(lo_var, hi_var)`` to ``[lo, hi) ∩ [within_lo, within_hi)``
    and run ``body`` when that range is non-empty."""

    lo_var: str
    hi_var: str
    lo: Bound
    hi: Bound
    within_lo: Bound
    within_hi: Bound
    body: list


@dataclasses.dataclass(slots=True)
class Guard:
    """Run ``body`` where every ``(var, lo, hi)`` has ``lo <= var < hi``."""

    ranges: Tuple[Tuple[str, int, int], ...]
    body: list


@dataclasses.dataclass(slots=True)
class Store:
    """``target = value``; the value already has the target's type."""

    target: Ref
    value: object


@dataclasses.dataclass(slots=True)
class Let:
    """``reg = value``. With ``declare`` this is the register's
    definition, which every register has once, at the top of the
    per-point body it lives in."""

    reg: Reg
    value: object
    declare: bool = False


@dataclasses.dataclass(slots=True)
class Nest:
    """One kernel function: its arguments and its loop-nest body."""

    name: str
    arrays: List[Array]
    scalars: List[str]
    body: list


# ---------------------------------------------------------------------------
# printing: values
# ---------------------------------------------------------------------------

_INFIX = ("<", ">", "<=", ">=", "==", "!=", "+", "-", "*")
_ROUNDERS = ("floor", "ceil", "trunc")
#: NumPy keeps an integer dtype through floor/ceil/trunc: a no-op
_INT_ROUNDERS = {(f, "l"): "({0})" for f in _ROUNDERS}
_C_BOTH = "((({0}) != 0) && (({1}) != 0))"
_C_EITHER = "((({0}) != 0) || (({1}) != 0))"

#: op → format of the printed operands; an ``(op, result tag)`` entry wins
#: over the plain ``op`` one. The C forms replicate the NumPy ufuncs bit
#: for bit: int64 arithmetic goes through uint64 (two's-complement wrap
#: without signed-overflow UB), min/max/sign/abs use the preamble helpers.
_C_OPS = {
    **{op: f"(({{0}}) {op} ({{1}}))" for op in _INFIX},
    **{(op, "l"): f"((int64_t)((uint64_t)({{0}}) {op} (uint64_t)({{1}})))"
       for op in ("+", "-", "*")},
    "/": "((double)({0}) / (double)({1}))",
    "and": _C_BOTH,
    "or": _C_EITHER,
    "not": "(({0}) == 0)",
    "neg": "(-({0}))",
    ("neg", "l"): "((int64_t)(-(uint64_t)({0})))",
    "select": "(({0}) ? ({1}) : ({2}))",
    ("cast", "d"): "((double)({0}))",
    ("cast", "l"): "((int64_t)({0}))",  # C truncation == NumPy float→int
    ("cast", "b"): "((unsigned char)(({0}) != 0))",
    "sqrt": "sqrt((double)({0}))",
    ("abs", "d"): "fabs({0})",
    ("abs", "l"): "__r_labs({0})",
    ("abs", "b"): "({0})",  # np.abs on bool is the identity
    **{f: f"{f}({{0}})" for f in _ROUNDERS},
    **_INT_ROUNDERS,
    ("min", "d"): "__r_fmin(({0}), ({1}))",
    ("max", "d"): "__r_fmax(({0}), ({1}))",
    ("min", "l"): "__r_lmin(({0}), ({1}))",
    ("max", "l"): "__r_lmax(({0}), ({1}))",
    ("min", "b"): _C_BOTH,
    ("max", "b"): _C_EITHER,
    ("sign", "d"): "__r_sign({0})",
    ("sign", "l"): "__r_lsign({0})",
}


def _terms(ref: Ref):
    """(loop variable, constant shift, element stride) per array axis."""
    for n, ax in enumerate(ref.array.axes):
        var, d = _AXIS_VAR[ax]
        stride = math.prod(ref.array.shape[n + 1:])
        yield var, ref.array.origin[d] + ref.offset[d], stride


def _c_index(ref: Ref) -> str:
    return " + ".join(
        (f"({v} + ({b}))" if b else v) + (f" * {s}" if s != 1 else "")
        for v, b, s in _terms(ref)
    )


def _c_lit(lit: Lit) -> str:
    if lit.tag == "b":
        return "1" if lit.value else "0"
    if lit.tag == "l":
        return f"((int64_t){lit.value}LL)"
    return float(lit.value).hex()


def _value(node) -> str:
    if isinstance(node, Ref):
        return f"{node.array.param}[{_c_index(node)}]"
    if isinstance(node, Lit):
        return _c_lit(node)
    if isinstance(node, Scalar):
        return f"s_{node.name}"
    if isinstance(node, Reg):
        return f"r_{node.name}"
    if isinstance(node, Axis):
        return node.var
    fmt = _C_OPS.get((node.op, node.tag)) or _C_OPS[node.op]
    return fmt.format(*map(_value, node.args))


# ---------------------------------------------------------------------------
# printing: structure
# ---------------------------------------------------------------------------

# ignored (silently) when the object was built without -fopenmp
_OMP = (
    "#pragma omp parallel for schedule(static) "
    "num_threads((int)nthreads) if(nthreads > 1)"
)


def _walk(out, nodes) -> None:
    """Print ``nodes``. :func:`_heads` gives a node's header lines and its
    body; a header line ending in ``{`` opens a scope, the body is printed
    inside, and every scope is closed again. A ``str`` in a body is an
    already printed line."""
    for node in nodes:
        if isinstance(node, str):
            out.emit(node)
            continue
        lines, body = _heads(node)
        depth = out.indent
        for line in lines:
            out.emit(line)
            out.indent += line.endswith("{")
        _walk(out, body)
        while out.indent > depth:
            out.indent -= 1
            out.emit("}")


def _c_strip(v, end, lo, hi, step) -> List[str]:
    return [
        f"for (int64_t {v} = {lo}; {v} < {hi}; {v} += {step})",
        "{",
        f"int64_t {end} = {v} + {step} < {hi} ? {v} + {step} : {hi};",
    ]


def _heads(n):
    if isinstance(n, Store):
        return [f"{_value(n.target)} = {_value(n.value)};"], ()
    if isinstance(n, Let):
        ctype = _CTYPE[n.reg.tag] + " " if n.declare else ""
        return [f"{ctype}{_value(n.reg)} = {_value(n.value)};"], ()
    if isinstance(n, Guard):
        cond = " && ".join(f"{v} >= {lo} && {v} < {hi}" for v, lo, hi in n.ranges)
        return [f"if ({cond}) {{"], n.body
    if isinstance(n, Clamp):
        a, b = n.lo_var, n.hi_var
        return [
            "{",  # own scope: sibling clamps declare the same two names
            f"int64_t {a} = {n.lo} > {n.within_lo} ? {n.lo} : {n.within_lo};",
            f"int64_t {b} = {n.hi} < {n.within_hi} ? {n.hi} : {n.within_hi};",
            f"if ({a} < {b}) {{",
        ], n.body
    if isinstance(n, Strip):
        return _c_strip(n.var, n.end, n.lo, n.hi, n.step), n.body
    v, lo, hi = n.var, n.lo, n.hi
    lines = [_OMP] if n.parallel else []
    if n.tile:
        lines += _c_strip("__t", "__te", lo, hi, n.tile)
        lo, hi = "__t", "__te"
    if n.independent:
        lines.append("#pragma GCC ivdep")
    if n.reverse:
        lines.append(f"for (int64_t {v} = {hi} - 1; {v} >= {lo}; --{v}) {{")
    else:
        lines.append(f"for (int64_t {v} = {lo}; {v} < {hi}; ++{v}) {{")
    return lines, n.body


def print_c(nest: Nest) -> str:
    """The nest as one C function (needs the backend's C preamble)."""
    params = [f"{_CTYPE[a.tag]}* {a.param}" for a in nest.arrays]
    params += [f"double s_{s}" for s in nest.scalars]
    params.append("int64_t nthreads")
    out = _SourceBuilder()
    out.emit(f"void {nest.name}({', '.join(params)})")
    out.emit("{")
    out.indent += 1
    out.emit("(void)nthreads;")
    _walk(out, nest.body)
    out.indent -= 1
    out.emit("}")
    return out.source()
