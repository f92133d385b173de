"""Frontend parsing tests: DSL syntax → stencil IR."""

import numpy as np
import pytest

from repro.dsl import (
    BACKWARD,
    FORWARD,
    PARALLEL,
    Field,
    FieldIJ,
    computation,
    horizontal,
    i_start,
    interval,
    j_end,
    region,
    stencil,
)
from repro.dsl.frontend import StencilSyntaxError, parse_stencil
from repro.dsl.ir import (
    Assign,
    BinOp,
    Call,
    FieldAccess,
    Literal,
    ScalarRef,
    Ternary,
    UnaryOp,
)


def test_parse_simple_parallel_stencil():
    def copy(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    sd = parse_stencil(copy)
    assert sd.name == "copy"
    assert [p.name for p in sd.field_params] == ["a", "b"]
    assert len(sd.computations) == 1
    comp = sd.computations[0]
    assert comp.order == PARALLEL
    (stmt,) = comp.statements()
    assert stmt.target == FieldAccess("b")
    assert stmt.value == FieldAccess("a")


def test_parse_offsets_and_scalars():
    def lap(a: Field, out: Field, w: float):
        with computation(PARALLEL), interval(...):
            out = w * (a[-1, 0, 0] + a[1, 0, 0] + a[0, -1, 0] + a[0, 1, 0] - 4.0 * a)

    sd = parse_stencil(lap)
    (stmt,) = sd.statements()
    offsets = {
        n.offset
        for n in _walk(stmt.value)
        if isinstance(n, FieldAccess) and n.name == "a"
    }
    assert offsets == {(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, 0)}
    assert any(isinstance(n, ScalarRef) and n.name == "w" for n in _walk(stmt.value))


def _walk(expr):
    from repro.dsl.ir import walk_expr

    return list(walk_expr(expr))


def test_k_only_offset_shorthand_rejected_for_wrong_arity():
    def bad(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a[0, 0]

    with pytest.raises(StencilSyntaxError):
        parse_stencil(bad)


def test_variable_offset_rejected():
    def bad(a: Field, b: Field, n: int):
        with computation(PARALLEL), interval(...):
            b = a[n, 0, 0]

    with pytest.raises(StencilSyntaxError, match="variable offsets"):
        parse_stencil(bad)


def test_temporary_field_detection():
    def tmp(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            t = a * 2.0
            out = t[-1, 0, 0] + t

    sd = parse_stencil(tmp)
    assert "t" in sd.temporaries
    assert len(sd.statements()) == 2


def test_scalar_local_is_folded_not_stored():
    def scal(a: Field, out: Field, dt: float):
        with computation(PARALLEL), interval(...):
            dt2 = dt * 0.5
            out = a * dt2

    sd = parse_stencil(scal)
    assert sd.temporaries == {}
    (stmt,) = sd.statements()
    # dt2 folded into the expression
    assert isinstance(stmt.value, BinOp)
    assert isinstance(stmt.value.right, BinOp)


def test_if_else_lowered_to_masks_on_the_held_test():
    def cond(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            if a > 0.0:
                out = a
            else:
                out = -a

    sd = parse_stencil(cond)
    held, s1, s2 = sd.statements()
    # the test is evaluated once, unmasked, into a temporary of its own
    assert held.target.name in sd.temporaries and held.mask is None
    assert isinstance(held.value, BinOp) and held.value.op == ">"
    # and the branches are masked by that value, not by the expression
    assert s1.mask == BinOp("!=", FieldAccess(held.target.name), Literal(0.0))
    assert s2.mask == UnaryOp("not", s1.mask)


def test_nested_if_masks_composed():
    def cond(a: Field, b: Field, out: Field):
        with computation(PARALLEL), interval(...):
            if a > 0.0:
                if b > 0.0:
                    out = a + b

    sd = parse_stencil(cond)
    outer, inner, stmt = sd.statements()
    assert outer.mask is None and inner.mask is None
    assert stmt.mask == BinOp(
        "and",
        BinOp("!=", FieldAccess(outer.target.name), Literal(0.0)),
        BinOp("!=", FieldAccess(inner.target.name), Literal(0.0)),
    )


def test_a_test_that_reads_no_field_stays_an_expression():
    def cond(a: Field, out: Field, w: float):
        with computation(PARALLEL), interval(...):
            if w > 0.0:
                out = a

    sd = parse_stencil(cond)
    (stmt,) = sd.statements()
    assert not sd.temporaries  # nothing a body could assign: nothing held
    assert isinstance(stmt.mask, BinOp) and stmt.mask.op == ">"


def test_intervals_forward_backward():
    def solver(a: Field, out: Field):
        with computation(FORWARD):
            with interval(0, 1):
                out = a
            with interval(1, None):
                out = out[0, 0, -1] + a
        with computation(BACKWARD), interval(0, -1):
            out = out[0, 0, 1] * 0.5

    sd = parse_stencil(solver)
    assert sd.computations[0].order == FORWARD
    assert len(sd.computations[0].intervals) == 2
    iv0, iv1 = (b.interval for b in sd.computations[0].intervals)
    assert iv0.resolve(10) == (0, 1)
    assert iv1.resolve(10) == (1, 10)
    assert sd.computations[1].intervals[0].interval.resolve(10) == (0, 9)


def test_horizontal_region_attached():
    def edge(v: Field, flux: Field, dt2: float):
        with computation(PARALLEL), interval(...):
            flux = dt2 * v * 0.5
            with horizontal(region[:, j_end]):
                flux = dt2 * v

    sd = parse_stencil(edge)
    s1, s2 = sd.statements()
    assert s1.region is None
    assert s2.region is not None
    assert s2.region.j.single
    assert s2.region.i.is_full


def test_region_with_anchor_arithmetic():
    """A region is bounded by the anchors themselves: ``i_start + 1`` is
    refused where the region is evaluated."""
    def edge(v: Field, flux: Field):
        with computation(PARALLEL), interval(...):
            with horizontal(region[i_start + 1, :]):
                flux = v * 2.0

    with pytest.raises(TypeError, match="AxisAnchor"):
        parse_stencil(edge)


def test_externals_folding():
    def scaled(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a * FACTOR

    sd = parse_stencil(scaled, externals={"FACTOR": 3.0})
    (stmt,) = sd.statements()
    assert Literal(3.0) in list(_walk(stmt.value))


def test_unknown_symbol_raises():
    def bad(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a * mystery

    with pytest.raises(StencilSyntaxError, match="unknown symbol"):
        parse_stencil(bad)


def test_calling_builtin_context_manager_outside_stencil_raises():
    with pytest.raises(TypeError):
        computation(PARALLEL)
    with pytest.raises(TypeError):
        interval(0, 1)


def test_ternary_expression():
    def tern(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a if a > 0.0 else 0.0

    sd = parse_stencil(tern)
    (stmt,) = sd.statements()
    assert isinstance(stmt.value, Ternary)


def test_augmented_assignment():
    """``out += 1.0`` is refused where it is written: the DSL has one
    assignment form, ``out = out + 1.0``."""
    def aug(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a
            out += 1.0

    with pytest.raises(StencilSyntaxError,
                       match="unsupported statement AugAssign"):
        parse_stencil(aug)


def test_min_max_varargs():
    def mm(a: Field, b: Field, c: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = min(a, b, c)

    sd = parse_stencil(mm)
    (stmt,) = sd.statements()
    assert isinstance(stmt.value, Call)
    assert isinstance(stmt.value.args[0], Call)  # nested min


def test_2d_field_annotation():
    def mixed(a: Field, m: FieldIJ, out: Field):
        with computation(PARALLEL), interval(...):
            out = a * m

    sd = parse_stencil(mixed)
    types = {p.name: p.field_type for p in sd.field_params}
    assert types["m"].axes == "IJ"


def test_interval_bound_validation():
    def bad(a: Field, out: Field):
        with computation(PARALLEL), interval(0, 0):
            out = a

    with pytest.raises(StencilSyntaxError):
        parse_stencil(bad)


def test_statement_outside_with_rejected():
    def bad(a: Field, out: Field):
        out = a  # noqa: F841 - intentionally outside computation

    with pytest.raises(StencilSyntaxError):
        parse_stencil(bad)


def test_stencil_decorator_bare_and_with_options():
    @stencil
    def s1(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    @stencil(externals={"SCALE": 2.0})
    def s2(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a * SCALE  # noqa: F821 - an external

    assert s1.name == "s1"
    assert s2.name == "s2" and s2.externals == {"SCALE": 2.0}
    assert s2.definition.name == "s2"
    assert [p.name for p in s1.definition.field_params] == ["a", "b"]
