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
from repro.sdfg.analysis import transient_lifetimes
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


def _chain(loop=None, callback=None):
    """``t0 = 2a; t1 = 2 t0; t2 = 2 t1; out = t1 + t2``, one state per
    stencil (``callback``: a position to put a contact-less callback
    state at; ``loop``: (first state, last state, count))."""
    sdfg = SDFG("chain")
    sdfg.add_array("a", SHAPE)
    sdfg.add_array("out", SHAPE)
    for name in ("t0", "t1", "t2"):
        sdfg.add_transient(name, SHAPE)
    calls = [
        (_double, {"a": "a", "t": "t0"}),
        (_double, {"a": "t0", "t": "t1"}),
        (_double, {"a": "t1", "t": "t2"}),
        (_add, {"s": "t1", "t": "t2", "out": "out"}),
    ]
    for index, (st_, mapping) in enumerate(calls):
        if callback == index:
            node = Callback("tick", lambda: None)
            node.reads, node.writes = [], []
            sdfg.add_state("tick").add(node)
        sdfg.add_state(f"s{index}").add(StencilComputation(
            st_.definition, st_.extents, mapping=mapping,
            origin=(0, 0, 0), domain=SHAPE,
        ))
    sdfg.expand_library_nodes()
    if loop:
        sdfg.add_loop(*loop)
    return sdfg


def test_a_transient_lives_from_its_first_toucher_to_its_last():
    assert transient_lifetimes(_chain()) == {
        "t0": (0, 1), "t1": (1, 3), "t2": (2, 3),
    }
    # a callback that declares no contact is no toucher; one that
    # declares nothing may touch everything
    assert transient_lifetimes(_chain(callback=3)) == {
        "t0": (0, 1), "t1": (1, 4), "t2": (2, 4),
    }
    barrier = _chain(callback=3)
    barrier.states[3].nodes[0].reads = None
    assert transient_lifetimes(barrier) == {
        "t0": (0, 3), "t1": (1, 4), "t2": (2, 4),
    }


def test_a_lifetime_reaching_into_a_loop_covers_the_whole_loop():
    # wholly inside the loop body: the same on every iteration
    assert transient_lifetimes(_chain(loop=(0, 3, 3)))["t0"] == (0, 1)
    # born before the loop, read inside it: must survive the back edge
    assert transient_lifetimes(_chain(loop=(1, 2, 3))) == {
        "t0": (0, 2), "t1": (1, 3), "t2": (1, 3),
    }
    # a loop of one pass has no back edge
    assert transient_lifetimes(_chain(loop=(1, 2, 1)))["t0"] == (0, 1)


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
    assert "unused" not in transient_lifetimes(sdfg)
    prog = compile_sdfg(sdfg)
    assert prog.plan_events[:2] == (("alloc", 0), ("free", 0))
    assert prog.runtime_bytes == 2 * _aligned(int(np.prod(SHAPE)) * 8)
    a, out = np.ones(SHAPE), np.zeros(SHAPE)
    prog(arrays={"a": a, "out": out})
    assert (out == 12.0).all()
