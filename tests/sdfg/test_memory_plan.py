"""The compile-time memory planner: a program's pooled values as byte
intervals of one slab, laid out from their lifetimes
(:func:`repro.sdfg.codegen.plan_layout`,
:func:`repro.sdfg.analysis.transient_lifetimes`)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dsl  # noqa: F401  (import order: repro.sdfg needs the DSL first)
from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.runtime.pool import ALIGN
from repro.sdfg import SDFG
from repro.sdfg.analysis import transient_lifetimes, transients_needing_zero
from repro.sdfg.codegen import compile_sdfg, plan_layout
from repro.sdfg.nodes import Callback, StencilComputation

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# plan_layout over random alloc/free logs
# ---------------------------------------------------------------------------


def _log(choices, sizes, lifo):
    """An alloc/free log from a list of integers: an even number (or an
    empty live set) allocates the next value, an odd one frees a live
    value — the youngest when ``lifo``, else the one the number picks."""
    events, live, nbytes = [], [], []
    for pick in choices:
        if pick % 2 == 0 or not live:
            nbytes.append(sizes[len(nbytes) % len(sizes)])
            live.append(len(nbytes) - 1)
            events.append(("alloc", live[-1]))
        else:
            value = live.pop(-1 if lifo else (pick // 2) % len(live))
            events.append(("free", value))
    return nbytes, events


def _aligned(n):
    return -(-n // ALIGN) * ALIGN


def _replay(nbytes, events, offsets):
    """Independent check of a layout: the peak of live (aligned) bytes,
    and that no value is born onto bytes of a live one."""
    live, peak = {}, 0
    for kind, value in events:
        if kind == "free":
            del live[value]
            continue
        lo, hi = offsets[value], offsets[value] + nbytes[value]
        for olo, ohi in live.values():
            assert hi <= olo or ohi <= lo, (value, (lo, hi), (olo, ohi))
        live[value] = (lo, hi)
        peak = max(peak, sum(_aligned(b - a) for a, b in live.values()))
    return peak


choices = st.lists(st.integers(0, 1000), min_size=1, max_size=120)
sizes = st.lists(st.integers(1, 5000), min_size=1, max_size=8)


@given(choices, sizes, st.booleans())
def test_no_two_live_values_overlap_and_the_slab_holds_them(choices, sizes,
                                                            lifo):
    nbytes, events = _log(choices, sizes, lifo)
    offsets, slab = plan_layout(nbytes, events)
    peak = _replay(nbytes, events, offsets)
    assert all(offset % ALIGN == 0 for offset in offsets)
    assert slab % ALIGN == 0
    # the slab ends exactly where its highest value does, and is never
    # less than what is live at once nor more than everything at once
    assert slab == max(o + _aligned(n) for o, n in zip(offsets, nbytes))
    assert peak <= slab <= sum(_aligned(n) for n in nbytes)
    # replaying the log reproduces the layout: it is a function of the
    # log alone
    assert plan_layout(list(nbytes), list(events)) == (offsets, slab)


@given(choices, sizes)
def test_nested_lifetimes_pack_to_the_peak_of_live_bytes(choices, sizes):
    """Kernel locals inside transients, expression scratch inside both:
    when the youngest value dies first the slab is the maximum of live
    bytes, to the byte (after alignment)."""
    nbytes, events = _log(choices, sizes, lifo=True)
    offsets, slab = plan_layout(nbytes, events)
    assert slab == _replay(nbytes, events, offsets)


@given(choices, st.integers(1, 5000))
def test_values_of_one_size_pack_to_the_peak_in_any_order(choices, size):
    nbytes, events = _log(choices, [size], lifo=False)
    offsets, slab = plan_layout(nbytes, events)
    assert slab == _replay(nbytes, events, offsets)


def test_crossing_lifetimes_of_unequal_sizes_can_leave_a_gap():
    """What first fit does not promise, pinned so nobody claims it: a
    small value between two dead neighbours splits the room a large one
    needs."""
    nbytes = [64, 64, 64, 128]
    events = [("alloc", 0), ("alloc", 1), ("alloc", 2),
              ("free", 0), ("free", 2), ("alloc", 3)]
    offsets, slab = plan_layout(nbytes, events)
    assert offsets == [0, 64, 128, 128] and slab == 256
    assert _replay(nbytes, events, offsets) == 192


def test_a_dead_values_bytes_serve_whatever_fits_regardless_of_shape():
    nbytes = [54 * 54 * 8, 48 * 48 * 8, 50 * 54 * 8, 54 * 50 * 8]
    events = [("alloc", 0), ("alloc", 1), ("free", 0),
              ("alloc", 2), ("free", 2), ("alloc", 3)]
    offsets, slab = plan_layout(nbytes, events)
    assert offsets[2] == offsets[3] == offsets[0] == 0
    assert slab == _aligned(nbytes[0]) + _aligned(nbytes[1])


# ---------------------------------------------------------------------------
# transient lifetimes, and the programs planned from them
# ---------------------------------------------------------------------------

SHAPE = (6, 5, 3)


@stencil
def _double(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0


@stencil
def _add(s: Field, t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = s + t


def _steps(*steps, transients=("t", "u", "v"), loop=None, zeroed=()):
    """One state per step over arrays ``a``/``out`` and ``transients``:
    ``(stencil, mapping)``, or ``("tick", names)`` for a callback that
    declares it reads ``names``; ``loop``: (first state, last state,
    count)."""
    sdfg = SDFG("steps")
    sdfg.add_array("a", SHAPE)
    sdfg.add_array("out", SHAPE)
    for name in transients:
        sdfg.add_transient(name, SHAPE)
        sdfg.arrays[name].zeroed = name in zeroed
    for index, (what, arg) in enumerate(steps):
        if what == "tick":
            node = Callback("tick", lambda: None)
            node.reads, node.writes = list(arg), []
        else:
            node = StencilComputation(
                what.definition, what.extents, mapping=arg,
                origin=(0, 0, 0), domain=SHAPE,
            )
        sdfg.add_state(f"s{index}").add(node)
    sdfg.expand_library_nodes()
    if loop:
        sdfg.add_loop(*loop)
    return sdfg


def _chain(loop=None, callback=None):
    """``t0 = 2a; t1 = 2 t0; t2 = 2 t1; out = t1 + t2``, one state per
    stencil (``callback``: a position to put a contact-less callback
    state at; ``loop``: (first state, last state, count))."""
    steps = [
        (_double, {"a": "a", "t": "t0"}),
        (_double, {"a": "t0", "t": "t1"}),
        (_double, {"a": "t1", "t": "t2"}),
        (_add, {"s": "t1", "t": "t2", "out": "out"}),
    ]
    if callback is not None:
        steps.insert(callback, ("tick", []))
    return _steps(*steps, transients=("t0", "t1", "t2"), loop=loop)


def _lifetimes(sdfg):
    return transient_lifetimes(sdfg, transients_needing_zero(sdfg))


def _spans(sdfg):
    """Transient → ``(first, last)`` of each of its generations."""
    return {
        name: [(gen.first, gen.last) for gen in generations]
        for name, generations in _lifetimes(sdfg).items()
    }


def test_a_transient_lives_from_its_first_toucher_to_its_last():
    assert _spans(_chain()) == {
        "t0": [(0, 1)], "t1": [(1, 3)], "t2": [(2, 3)],
    }
    # a callback that declares no contact is no toucher; one that
    # declares nothing may touch everything
    assert _spans(_chain(callback=3)) == {
        "t0": [(0, 1)], "t1": [(1, 4)], "t2": [(2, 4)],
    }
    barrier = _chain(callback=3)
    barrier.states[3].nodes[0].reads = None
    assert _spans(barrier) == {
        "t0": [(0, 3)], "t1": [(1, 4)], "t2": [(2, 4)],
    }


def test_a_lifetime_reaching_into_a_loop_covers_the_whole_loop():
    # wholly inside the loop body: the same on every iteration
    assert _spans(_chain(loop=(0, 3, 3)))["t0"] == [(0, 1)]
    # born before the loop, read inside it: must survive the back edge
    assert _spans(_chain(loop=(1, 2, 3))) == {
        "t0": [(0, 2)], "t1": [(1, 3)], "t2": [(1, 3)],
    }
    # a loop of one pass has no back edge
    assert _spans(_chain(loop=(1, 2, 1)))["t0"] == [(0, 1)]


@pytest.mark.parametrize("loop", [None, (0, 3, 3), (1, 2, 3)])
def test_transients_share_bytes_and_the_program_is_still_right(loop):
    sdfg = _chain(loop=loop)
    prog = compile_sdfg(sdfg)
    one = _aligned(int(np.prod(SHAPE)) * 8)
    values = prog._transient_values
    offsets = {name: prog.plan_offsets[values[name]] for name in values}
    if loop == (1, 2, 3):
        # t0 is live across the loop t1 and t2 are written in
        assert prog.runtime_bytes == 3 * one
        assert len(set(offsets.values())) == 3
    else:
        # t2 is born when t0 is dead, and takes its bytes
        assert prog.runtime_bytes == 2 * one
        assert offsets["t2"] == offsets["t0"] != offsets["t1"]
    a = np.random.default_rng(3).random(SHAPE)
    out = np.zeros(SHAPE)
    prog(arrays={"a": a, "out": out})
    np.testing.assert_array_equal(out, a * 2.0 * 2.0 + a * 2.0 * 2.0 * 2.0)


def test_an_untouched_transient_is_bound_and_holds_nothing_live():
    sdfg = _chain()
    sdfg.add_transient("unused", SHAPE)
    assert "unused" not in _lifetimes(sdfg)
    prog = compile_sdfg(sdfg)
    assert prog.plan_events[:2] == (("alloc", 0), ("free", 0))
    assert prog.runtime_bytes == 2 * _aligned(int(np.prod(SHAPE)) * 8)
    a, out = np.ones(SHAPE), np.zeros(SHAPE)
    prog(arrays={"a": a, "out": out})
    assert (out == 12.0).all()


# ---------------------------------------------------------------------------
# generations: a write that covers every later read begins a new value
# ---------------------------------------------------------------------------


@stencil
def _double_upper(a: Field, t: Field):
    with computation(PARALLEL), interval(1, None):
        t = a * 2.0


@stencil
def _double_if(a: Field, t: Field):
    with computation(PARALLEL), interval(...):
        if a > 0.5:
            t = a * 2.0


def _run(sdfg, **given):
    """The program on the default backend, on ``a`` and fresh ``out``."""
    from repro.dsl.backends import default_backend

    a = np.random.default_rng(11).random(SHAPE)
    out = np.zeros(SHAPE)
    prog = compile_sdfg(sdfg, default_backend())
    prog(arrays={"a": a, "out": out, **given})
    return prog, a, out


def _gens(sdfg, name="t"):
    return [tuple(gen) for gen in _lifetimes(sdfg)[name]]


#: ``t = 2a; u = 2t; v = 2u; t = 2v; out = t + v``: ``t`` is rewritten
#: whole between its reads
REWRITTEN = (
    (_double, {"a": "a", "t": "t"}),
    (_double, {"a": "t", "t": "u"}),
    (_double, {"a": "u", "t": "v"}),
    (_double, {"a": "v", "t": "t"}),
    (_add, {"s": "t", "t": "v", "out": "out"}),
)


def test_a_whole_rewrite_begins_a_generation_and_its_bytes_are_reused():
    sdfg = _steps(*REWRITTEN)
    assert _gens(sdfg) == [(0, 0, 1), (3, 3, 4)]
    prog, a, out = _run(sdfg)
    np.testing.assert_array_equal(out, a * 16.0 + a * 8.0)
    one = _aligned(int(np.prod(SHAPE)) * 8)
    values = prog._transient_values
    offsets = {key: prog.plan_offsets[values[key]] for key in values}
    # between its two generations ``t`` holds nothing: ``v`` is born on
    # its first value's bytes, its second takes the bytes ``u`` left
    assert set(values) == {"t", "t@1", "u", "v"}
    assert offsets["v"] == offsets["t"]
    assert offsets["t@1"] == offsets["u"]
    # one value from ``t``'s first toucher to its last held three
    assert prog.runtime_bytes == 2 * one


def test_a_rewrite_that_leaves_part_of_a_later_read_keeps_one_lifetime():
    # level 0 of ``t`` keeps ``2a`` past the rewrite: split there, it
    # would read the bytes ``u`` left behind
    sdfg = _steps(
        (_double, {"a": "a", "t": "t"}),
        (_double, {"a": "t", "t": "u"}),
        (_double, {"a": "u", "t": "v"}),
        (_double_upper, {"a": "v", "t": "t"}),
        (_add, {"s": "t", "t": "v", "out": "out"}),
    )
    assert _gens(sdfg) == [(0, 0, 4)]
    _, a, out = _run(sdfg)
    np.testing.assert_array_equal(out[:, :, 0], a[:, :, 0] * 10.0)
    np.testing.assert_array_equal(out[:, :, 1:], a[:, :, 1:] * 24.0)


def test_a_masked_keep_old_read_keeps_one_lifetime():
    # the first write keeps old values where ``a <= 0.5``: an excused
    # read, so ``t`` is zeroed at birth and the later whole rewrite
    # begins no generation
    sdfg = _steps(
        (_double_if, {"a": "a", "t": "t"}),
        (_add, {"s": "t", "t": "a", "out": "u"}),
        (_double, {"a": "u", "t": "t"}),
        (_add, {"s": "t", "t": "u", "out": "out"}),
    )
    assert _gens(sdfg) == [(0, 0, 3)]
    prog, a, out = _run(sdfg)
    assert "t.fill(0)" in prog.source
    u = np.where(a > 0.5, a * 2.0, 0.0) + a
    np.testing.assert_array_equal(out, u * 3.0)


def test_a_loop_carried_read_keeps_one_lifetime():
    # ``out = t + a`` reads what ``t = 2a`` wrote on the previous
    # iteration: an excused read, though the rewrite after the loop
    # covers every read after it
    sdfg = _steps(
        (_add, {"s": "t", "t": "a", "out": "u"}),
        (_double, {"a": "a", "t": "t"}),
        (_double, {"a": "u", "t": "t"}),
        (_add, {"s": "t", "t": "u", "out": "out"}),
        loop=(0, 1, 2),
    )
    assert _gens(sdfg) == [(0, 0, 3)]
    prog, a, out = _run(sdfg)
    # zeroed where it is born, at the head of every pass: ``u = a``
    assert "t.fill(0)" in prog.source
    np.testing.assert_array_equal(out, a * 3.0)


@pytest.mark.parametrize("why", ["callback", "zeroed"])
def test_a_transient_a_callback_touches_or_that_is_zeroed_keeps_one_lifetime(
    why,
):
    steps = list(REWRITTEN)
    if why == "callback":
        steps.insert(2, ("tick", ["t"]))
    sdfg = _steps(*steps, zeroed=("t",) if why == "zeroed" else ())
    assert len(_gens(sdfg)) == 1
    prog, a, out = _run(sdfg)
    assert set(prog._transient_values) == {"t", "u", "v"}
    np.testing.assert_array_equal(out, a * 16.0 + a * 8.0)


def test_a_transient_the_caller_provides_is_one_array_for_every_generation():
    mine = np.full(SHAPE, np.nan)
    prog, a, out = _run(_steps(*REWRITTEN), t=mine)
    assert "t@1" in prog._transient_values
    np.testing.assert_array_equal(out, a * 16.0 + a * 8.0)
    # the last generation's value is what the caller's array holds
    np.testing.assert_array_equal(mine, a * 16.0)


def test_a_generation_that_reaches_into_a_loop_is_widened_to_the_loop():
    # the second generation begins before the loop and is read inside it
    widened = _steps(*REWRITTEN, (_double, {"a": "t", "t": "w"}),
                     loop=(4, 5, 2), transients=("t", "u", "v", "w"))
    assert _gens(widened) == [(0, 0, 1), (3, 3, 5)]
    # a loop around both keeps each inside the body, the same every pass
    assert _gens(_steps(*REWRITTEN, loop=(0, 4, 3))) == [(0, 0, 1),
                                                          (3, 3, 4)]
    _, a, out = _run(_steps(*REWRITTEN, loop=(0, 4, 3)))
    np.testing.assert_array_equal(out, a * 16.0 + a * 8.0)


def test_no_generation_begins_inside_a_loop_a_value_enters():
    # ``t`` is written before the loop and read at its head, then
    # rewritten in the body: the next pass reads the rewrite, so the
    # body's write must not move ``t`` to storage of its own
    sdfg = _steps(
        (_double, {"a": "a", "t": "t"}),
        (_double, {"a": "t", "t": "u"}),
        (_double, {"a": "u", "t": "t"}),
        (_add, {"s": "t", "t": "u", "out": "out"}),
        loop=(1, 3, 2),
    )
    assert _gens(sdfg) == [(0, 0, 3)]
    _, a, out = _run(sdfg)
    np.testing.assert_array_equal(out, a * 16.0 * 2.0 + a * 16.0)
