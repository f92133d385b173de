"""R4xx buffer-lifetime rules: synthetic traces, live pool recording,
and compiled-plan replay."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.lint import (
    BufferEvent,
    lint_buffer_events,
    lint_compiled_plan,
    record_buffer_events,
)
from repro.runtime.pool import BufferPool

from tests.lint.graph_defects import SHAPE, chained_sdfg


def _rules(findings):
    return sorted(f.rule for f in findings)


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------


def test_balanced_trace_is_clean():
    events = [
        BufferEvent("acquire", 1),
        BufferEvent("use", 1, label="kernel"),
        BufferEvent("release", 1),
    ]
    assert lint_buffer_events(events) == []


def test_use_after_release_is_r401():
    events = [
        BufferEvent("acquire", 1),
        BufferEvent("release", 1),
        BufferEvent("use", 1, label="stencil:x"),
    ]
    (f,) = lint_buffer_events(events)
    assert (f.rule, f.severity) == ("R401", "error")
    assert "stencil:x" in f.message


def test_bind_after_release_is_r401():
    events = [
        BufferEvent("acquire", 1),
        BufferEvent("release", 1),
        BufferEvent("bind", 1, label="sdfg:prog:out"),
    ]
    (f,) = lint_buffer_events(events)
    assert f.rule == "R401"
    assert "kernel destination" in f.message


def test_double_acquire_is_r402():
    events = [
        BufferEvent("acquire", 1, label="a"),
        BufferEvent("acquire", 1, label="b"),
        BufferEvent("release", 1),
    ]
    (f,) = lint_buffer_events(events)
    assert (f.rule, f.severity) == ("R402", "error")
    assert "acquired twice" in f.message


def test_double_release_is_r402():
    events = [
        BufferEvent("acquire", 1),
        BufferEvent("release", 1),
        BufferEvent("release", 1),
    ]
    (f,) = lint_buffer_events(events)
    assert f.rule == "R402"
    assert "released twice" in f.message


def test_release_without_acquire_is_r402():
    (f,) = lint_buffer_events([BufferEvent("release", 7)])
    assert f.rule == "R402"
    assert "without ever being acquired" in f.message


def test_leak_is_r403_warning_unless_allowed():
    events = [BufferEvent("acquire", 1, label="scope")]
    (f,) = lint_buffer_events(events)
    assert (f.rule, f.severity) == ("R403", "warning")
    assert lint_buffer_events(events, allow_live_at_end=True) == []


def test_foreign_bind_of_live_buffer_is_r404():
    events = [
        BufferEvent("acquire", 1, label="owner", rank=0),
        BufferEvent("bind", 1, label="sdfg:prog:out", rank=0),
        BufferEvent("release", 1),
    ]
    (f,) = lint_buffer_events(events)
    assert (f.rule, f.severity) == ("R404", "error")
    assert "sdfg:prog:out" in f.message


def test_same_owner_bind_is_clean():
    events = [
        BufferEvent("acquire", 1, label="x", rank=2),
        BufferEvent("bind", 1, label="x", rank=2),
        BufferEvent("release", 1),
    ]
    assert lint_buffer_events(events) == []


def test_unknown_event_kind_rejected():
    with pytest.raises(ValueError, match="unknown buffer event"):
        lint_buffer_events([BufferEvent("frob", 1)])


# ---------------------------------------------------------------------------
# Live pool recording
# ---------------------------------------------------------------------------


def test_recorder_sees_checkout_release_pairs():
    pool = BufferPool()
    with record_buffer_events(pool) as events:
        a = pool.checkout((4, 4), np.float64)
        pool.release(a)
    assert [e.kind for e in events] == ["acquire", "release"]
    assert events[0].buffer == id(a)
    assert events[0].key == ((4, 4), "<f8")
    assert lint_buffer_events(events) == []


def test_recorder_catches_leak_and_use_after_release():
    pool = BufferPool()
    with record_buffer_events(pool) as events:
        a = pool.checkout((4, 4), np.float64)
        b = pool.checkout((2, 2), np.float64)
        pool.release(a)
        pool.note("use", a, label="late-reader")
        del b  # never released
    assert _rules(lint_buffer_events(events)) == ["R401", "R403"]


def test_recorder_detaches_after_block():
    pool = BufferPool()
    with record_buffer_events(pool) as events:
        pool.release(pool.checkout((2, 2), np.float64))
    n = len(events)
    pool.release(pool.checkout((2, 2), np.float64))
    assert len(events) == n
    assert pool._recorder is None


def test_note_is_noop_without_recorder():
    pool = BufferPool()
    buf = pool.checkout((2, 2), np.float64)
    pool.note("use", buf)  # must not raise or record anything
    pool.release(buf)


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------


def _fake_compiled(events, specs, offsets=None):
    """A compiled program as the checker sees it: the planner's log and
    value specs, laid out by the real planner unless ``offsets`` says
    otherwise."""
    from repro.sdfg.codegen import plan_layout

    plan = SimpleNamespace(events=list(events), specs=list(specs))
    nbytes = [int(np.prod(shape)) * dtype.itemsize for shape, dtype in specs]
    planned, slab = plan_layout(nbytes, plan.events)
    return SimpleNamespace(
        sdfg=SimpleNamespace(name="prog"),
        image=plan,
        plan_events=tuple(plan.events),
        plan_nbytes=nbytes,
        plan_offsets=planned if offsets is None else list(offsets),
        runtime_bytes=slab,
    )


F8 = np.dtype("f8")


def test_compiled_plan_replay_clean():
    compiled = _fake_compiled(
        [("alloc", 0), ("alloc", 1), ("free", 0), ("alloc", 2),
         ("free", 1), ("free", 2)],
        [((4, 4), F8), ((2, 4), F8), ((4, 2), F8)],
    )
    # value 2 is born after value 0 died and takes its bytes
    assert compiled.plan_offsets == [0, 128, 0]
    assert compiled.runtime_bytes == 192
    assert lint_compiled_plan(compiled) == []


def test_compiled_plan_double_free_is_r402():
    compiled = _fake_compiled(
        [("alloc", 0), ("free", 0), ("free", 0)],
        [((4, 4), F8)],
    )
    (f,) = lint_compiled_plan(compiled)
    assert f.rule == "R402"
    assert f.subject == "sdfg:prog"
    assert "value 0" in f.message


def test_compiled_plan_slots_live_at_end_are_expected():
    # nothing has to free what the call's one release gives back, so a
    # trailing live value is by design, not a leak
    compiled = _fake_compiled([("alloc", 0)], [((4, 4), F8)])
    assert lint_compiled_plan(compiled) == []


def test_two_live_values_sharing_bytes_is_r404():
    """The hand-broken layout: two values that are live together are
    given one offset."""
    events = [("alloc", 0), ("alloc", 1), ("free", 0), ("free", 1)]
    specs = [((4, 4), F8), ((4, 4), F8)]
    assert lint_compiled_plan(_fake_compiled(events, specs)) == []
    (f,) = lint_compiled_plan(_fake_compiled(events, specs, offsets=[0, 0]))
    assert (f.rule, f.severity, f.subject) == ("R404", "error", "sdfg:prog")
    assert "value 1" in f.message and "value 0" in f.message
    assert "[0, 128)" in f.message
    # a partial overlap is one too; disjoint lifetimes on one offset are not
    (f,) = lint_compiled_plan(_fake_compiled(events, specs, offsets=[64, 0]))
    assert f.rule == "R404"
    sequential = [("alloc", 0), ("free", 0), ("alloc", 1), ("free", 1)]
    assert lint_compiled_plan(
        _fake_compiled(sequential, specs, offsets=[0, 0])
    ) == []


def test_value_outside_the_slab_is_r404():
    compiled = _fake_compiled([("alloc", 0)], [((4, 4), F8)], offsets=[64])
    (f,) = lint_compiled_plan(compiled)
    assert f.rule == "R404" and "never checked out" in f.message


def test_real_compiled_sdfg_plan_is_clean():
    from repro.sdfg.codegen import compile_sdfg

    compiled = compile_sdfg(chained_sdfg())
    assert compiled.runtime_bytes > 0
    assert lint_compiled_plan(compiled) == []


def test_live_pooled_scratch_as_sdfg_destination_is_r404():
    """The end-to-end aliasing scenario: a caller checks out pooled
    scratch and passes it to a compiled program as an output — the
    program's out=-scheduled writes now alias pool-owned storage."""
    from repro.runtime.pool import get_pool
    from repro.sdfg.codegen import compile_sdfg

    compiled = compile_sdfg(chained_sdfg())
    pool = get_pool()
    a = np.ones(SHAPE)
    with record_buffer_events(pool) as events:
        scratch = pool.checkout(SHAPE, np.float64)
        compiled({"a": a, "out": scratch})
        pool.release(scratch)
    findings = [
        f for f in lint_buffer_events(events) if f.rule == "R404"
    ]
    assert len(findings) == 1
    assert "sdfg:prog:out" in findings[0].message


def test_dedicated_output_array_has_no_r404():
    from repro.runtime.pool import get_pool
    from repro.sdfg.codegen import compile_sdfg

    compiled = compile_sdfg(chained_sdfg())
    pool = get_pool()
    a, out = np.ones(SHAPE), np.zeros(SHAPE)
    with record_buffer_events(pool) as events:
        compiled({"a": a, "out": out})
    assert lint_buffer_events(events) == []
