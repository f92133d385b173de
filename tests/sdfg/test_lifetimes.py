"""Lifetime analysis of toolchain-owned storage: one walk
(:func:`repro.sdfg.analysis.coverage`) decides both what ``repro.lint``
reports (S202/S204/S205) and what the code generator zero-fills, of the
transients and of the kernel locals."""

import re

import numpy as np
import pytest

import repro.dsl  # noqa: F401  (import order: repro.sdfg needs the DSL first)
from repro.dsl import (
    BACKWARD, Field, PARALLEL, computation, interval, stencil,
)
from repro.lint import lint_sdfg
from repro.sdfg import SDFG
from repro.sdfg import analysis
from repro.sdfg.analysis import coverage
from repro.sdfg.codegen import compile_sdfg
from repro.sdfg.nodes import Callback, StencilComputation
from repro.sdfg.subsets import Range

SHAPE = (10, 8, 4)


def test_range_difference_is_exact():
    whole = Range.of((0, 10), (0, 8))
    assert whole.difference(Range.of((0, 10), (0, 8))) == []
    assert whole.difference(Range.of((20, 30), (0, 8))) == [whole]
    pieces = whole.difference(Range.of((2, 5), (3, 20)))
    # disjoint, inside the original, and exactly the uncovered volume
    assert sum(p.volume() for p in pieces) == 80 - 3 * 5
    for i, p in enumerate(pieces):
        assert whole.covers(p)
        assert p.intersection(Range.of((2, 5), (3, 8))) is None
        assert all(p.intersection(q) is None for q in pieces[i + 1:])
    assert Range.of((3, 3), (0, 8)).difference(whole) == []  # empty range


def test_one_implementation_behind_lint_and_codegen():
    from repro.lint import sdfg_rules
    from repro.sdfg import codegen

    assert sdfg_rules.coverage is analysis.coverage
    assert codegen.coverage is analysis.coverage
    assert not hasattr(codegen, "_covering_first_write")
    assert not hasattr(codegen, "_transients_needing_zero")
    # the fields of the one walk are no second walks
    for name in ("uncovered_reads", "transients_needing_zero",
                 "transient_lifetimes", "dead_transients"):
        assert not hasattr(analysis, name), name


@stencil
def _write(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0


@stencil
def _read(t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = t + 1.0


@stencil
def _write_if(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        if a > 0.5:
            t = a


@stencil
def _write_if_else(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        if a > 0.5:
            t = a
        else:
            t = -a


@stencil
def _write_if_else_on_itself(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        if t > 0.5:
            t = a
        else:
            t = -a


def _program(*calls, loop=None):
    """``calls``: (stencil, mapping, origin, domain) in program order over
    arrays ``a``/``out`` and the transient ``t``."""
    sdfg = SDFG("prog")
    sdfg.add_array("a", SHAPE)
    sdfg.add_array("out", SHAPE)
    sdfg.add_transient("t", SHAPE)
    state = sdfg.add_state("s0")
    for st, mapping, origin, domain in calls:
        state.add(StencilComputation(
            st.definition, st.extents, mapping=mapping, domain=domain,
            origin=origin,
        ))
    sdfg.expand_library_nodes()
    if loop:
        sdfg.add_loop(0, 0, loop)
    return sdfg


W = {"a": "a", "t": "t"}
R = {"t": "t", "out": "out"}
FULL = ((0, 0, 0), SHAPE)


def _fills(sdfg):
    return compile_sdfg(sdfg).source.count("t.fill(0)")


def test_bounding_box_of_the_writes_is_not_coverage():
    """Two writes forming an L: their bounding box covers the read, the
    writes do not — the corner they leave out is reported and filled."""
    sdfg = _program(
        (_write, W, (0, 0, 0), (10, 4, 4)),   # lower half in j
        (_write, W, (0, 4, 0), (5, 4, 4)),    # upper-left quarter
        (_read, R, *FULL),
    )
    (record,) = coverage(sdfg).uncovered_reads
    assert record.name == "t" and not record.local and record.excuse is None
    # the box "covers"
    assert record.written == Range(tuple((0, n) for n in SHAPE))
    assert record.missing == [Range.of((5, 10), (4, 8), (0, 4))]
    (finding,) = lint_sdfg(sdfg)
    assert finding.rule == "S202" and "[5:10, 4:8, 0:4]" in finding.message
    assert coverage(sdfg).transients_needing_zero == ["t"] and _fills(sdfg) == 1


def test_covered_read_has_no_record_and_no_fill():
    sdfg = _program((_write, W, *FULL), (_read, R, (1, 1, 0), (8, 6, 4)))
    assert coverage(sdfg).uncovered_reads == [] and lint_sdfg(sdfg) == []
    assert coverage(sdfg).transients_needing_zero == [] and _fills(sdfg) == 0


def test_both_branches_of_an_if_are_one_write():
    sdfg = _program((_write_if_else, W, *FULL), (_read, R, *FULL))
    assert coverage(sdfg).uncovered_reads == []
    assert _fills(sdfg) == 0


def test_one_branch_keeps_old_values_excused_but_filled():
    """``if c: t = a`` leaves ``t`` as it was where ``c`` is false. For a
    static checker that is a write (DSL temporaries start at zero, as in
    D101); on a pooled buffer it needs the zero to be there."""
    sdfg = _program((_write_if, W, *FULL), (_read, R, *FULL))
    (record,) = coverage(sdfg).uncovered_reads
    assert record.excuse == "mask" and record.stmt.mask is not None
    assert lint_sdfg(sdfg) == []
    assert _fills(sdfg) == 1
    # a test that reads the target it guards is evaluated once, so the
    # branches are a clean pair; the test's own read is what finds nothing
    sdfg = _program((_write_if_else_on_itself, W, *FULL), (_read, R, *FULL))
    (record,) = coverage(sdfg).uncovered_reads
    assert record.excuse is None and record.stmt.mask is None
    assert _fills(sdfg) == 1


def test_loop_carried_read_is_excused_but_filled():
    sdfg = _program((_read, R, *FULL), (_write, W, *FULL))
    assert [r.excuse for r in coverage(sdfg).uncovered_reads] == [None]
    sdfg = _program((_read, R, *FULL), (_write, W, *FULL), loop=3)
    assert [r.excuse for r in coverage(sdfg).uncovered_reads] == ["loop"]
    assert lint_sdfg(sdfg) == []
    assert _fills(sdfg) == 1  # the first iteration has nothing to carry


@pytest.mark.parametrize("declared, fills", [(None, 1), (["t"], 1),
                                             (["a"], 0)])
def test_callback_touches_what_it_declares_or_everything(declared, fills):
    sdfg = _program((_write, W, (1, 1, 0), (8, 6, 4)),
                    (_read, R, (1, 1, 0), (8, 6, 4)))
    callback = Callback("cb", lambda: None)
    callback.reads = callback.writes = declared
    sdfg.states[0].nodes.insert(1, callback)
    records = coverage(sdfg).uncovered_reads
    assert len(records) == fills
    if fills:
        (record,) = records
        assert record.node is callback and record.stmt is None
        assert record.excuse == "callback"
        assert record.required == Range(tuple((0, n) for n in SHAPE))
    assert lint_sdfg(sdfg) == []
    assert _fills(sdfg) == fills


def test_dead_transient_is_one_nothing_can_read():
    sdfg = _program((_write, W, *FULL))
    assert [(n, k.label) for n, k in coverage(sdfg).dead_transients] == \
        [("t", "_write_c0")]
    reader = Callback("cb", lambda: None)  # undeclared: may read it
    sdfg.states[0].nodes.append(reader)
    assert coverage(sdfg).dead_transients == []
    reader.reads = reader.writes = ["a"]
    assert [n for n, _ in coverage(sdfg).dead_transients] == ["t"]


@stencil
def _below_in_a_backward_sweep(a: Field, t: Field, out: Field):
    with computation(BACKWARD):
        with interval(0, 1):
            t = a
        with interval(1, None):
            t = a * 2.0
            out = t[0, 0, -1]


@stencil
def _above_from_a_later_section(a: Field, t: Field, out: Field):
    with computation(BACKWARD):
        with interval(0, -1):
            t = a
            out = t[0, 0, 1]
        with interval(-1, None):
            t = a * 2.0


@pytest.mark.parametrize("st, missing", [
    (_below_in_a_backward_sweep, (1, 3)),
    (_above_from_a_later_section, (3, 4)),
])
def test_a_sweep_sees_the_sections_listed_before_it(st, missing):
    """Sections run in the order listed, each its own sweep: a level the
    reading sweep has not reached holds only what earlier sections
    wrote, and a carried read at a section's edge sees no later one."""
    sdfg = _program((st, {"a": "a", "t": "t", "out": "out"}, *FULL))
    (record,) = coverage(sdfg).uncovered_reads
    assert record.excuse is None
    assert record.missing == [Range.of((0, 10), (0, 8), missing)]
    assert coverage(sdfg).transients_needing_zero == ["t"] and _fills(sdfg) == 1


def test_fill_is_what_the_uncovered_points_read(monkeypatch):
    """End to end on poisoned buffers: the uncovered corner reads as
    zero, everything else as written."""
    from repro.resilience import chaos
    from repro.resilience.chaos import ChaosPlan

    sdfg = _program((_write, W, (0, 0, 0), (10, 4, 4)), (_read, R, *FULL))
    prog = compile_sdfg(sdfg)
    a = np.random.default_rng(2).random(SHAPE)
    out = np.zeros(SHAPE)
    previous = chaos.set_plan(ChaosPlan.from_spec("pool.poison:p=1.0"))
    try:
        prog(arrays={"a": a, "out": out})
    finally:
        chaos.set_plan(previous)
    np.testing.assert_array_equal(out[:, :4], a[:, :4] * 2.0 + 1.0)
    np.testing.assert_array_equal(out[:, 4:], 1.0)


# ---------------------------------------------------------------------------
# kernel locals: zeroed exactly where the walk finds an uncovered read
# ---------------------------------------------------------------------------


#: the step's four programs at c12·L4: the kernel locals with a read the
#: kernel's earlier writes do not cover (of 232 locals)
STEP_LOCAL_FILLS = 40


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_a_steps_local_fills_are_the_walks_records(backend):
    """The drivers of the four step programs zero exactly the locals the
    walk names — every one on ``numpy``; on ``compiled`` the kernels that
    read a local before writing it all hold it in registers."""
    from repro.run import build_core
    from repro.runtime import jit
    from repro.scenarios import get_scenario
    from repro.sdfg.codegen import generate

    if backend == "compiled" and not jit.available():
        pytest.skip("no C compiler")
    core = build_core("baroclinic_wave", get_scenario(
        "baroclinic_wave").default_config(npx=12, npz=4))
    records, fills = [], []
    try:
        core.prepare()
        for call, _ in core.step_programs(core.ranks[0]):
            call.func.bind(*call.args)
            sdfg = call.func.sdfg
            records += [(kernel.label, name) for kernel, name
                        in coverage(sdfg).locals_needing_zero]
            kernel = None
            for line in generate(sdfg, backend).source.splitlines():
                label = re.search(r"# kernel (\S+)", line)
                kernel = label.group(1) if label else kernel
                fill = re.search(r"__loc_(\w+)\.fill\(0\)", line)
                if fill:
                    fills.append((kernel, fill.group(1)))
    finally:
        core.finalize()
        core.executor.shutdown()
    assert len(records) == STEP_LOCAL_FILLS
    assert sorted(fills) == (sorted(records) if backend == "numpy" else [])
