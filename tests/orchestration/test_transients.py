"""Module scratch as program transients: ``transient(shape)`` declares
storage-less scratch, the trace turns it into an SDFG transient drawn
from the buffer arena per call, and templates guard it like an array."""

import numpy as np
import pytest

from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.dsl import backends
from repro.lint import lint_sdfg
from repro.orchestration import OrchestrationError, orchestrate, transient
from repro.runtime import compile_cache as cc
from repro.runtime.pool import get_pool

SHAPE = (8, 8, 4)
FULL = dict(origin=(0, 0, 0), domain=SHAPE)
INNER = dict(origin=(1, 1, 0), domain=(6, 6, 4))


@pytest.fixture(autouse=True)
def _fresh_store():
    cc.reset(clear=True)
    yield
    cc.reset(clear=True)


@stencil
def _scale(a: Field, out: Field, factor: float):
    with computation(PARALLEL), interval(...):
        out = a * factor


@stencil
def _add(a: Field, b: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a + b


@stencil
def _average_x(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = 0.5 * (a[-1, 0, 0] + a[1, 0, 0])


def _touch(q):
    q += 1.0


class Inner:
    """Doubles ``q`` into whatever ``out`` it is handed."""

    @orchestrate
    def __call__(self, q: np.ndarray, out: np.ndarray):
        _scale(q, out, 2.0)  # the whole field, whatever its shape


class Outer:
    """``self.tmp`` goes down into the inlined ``Inner`` under another
    name and is read back under its own."""

    def __init__(self, shape=SHAPE, dtype=np.float64):
        self.inner = Inner()
        self.tmp = transient(shape, dtype)
        self.shape = shape

    @orchestrate
    def __call__(self, q: np.ndarray, out: np.ndarray):
        self.inner(q, self.tmp)
        _add(q, self.tmp, out, origin=(0, 0, 0), domain=self.shape)


def _run(module, shape=SHAPE):
    q = np.arange(np.prod(shape), dtype=float).reshape(shape)
    out = np.zeros(shape)
    module(q, out)
    np.testing.assert_array_equal(out, 3.0 * q)


def test_declaration_has_a_shape_and_no_buffer():
    tmp = transient([4, 5, 6])
    assert tmp.shape == (4, 5, 6) and tmp.dtype == np.float64
    assert tmp.ndim == 3
    assert not hasattr(tmp, "nbytes") and not hasattr(tmp, "data")
    assert transient((2, 2), np.float32).dtype == np.float32


def test_declaration_is_one_container_through_an_inlined_callee():
    outer = Outer()
    _run(outer)
    sdfg = type(outer).__dict__["__call__"].__get__(outer).sdfg
    assert sdfg.name == "Outer"
    assert len(sdfg.transients()) == 1
    (name,) = sdfg.transients()
    assert sdfg.arrays[name].shape == SHAPE
    # both stencils touch that one container; the caller binds q and out
    writers = sdfg.container_writers()[name]
    readers = sdfg.container_readers()[name]
    assert len(writers) == 1 and len(readers) == 1
    assert len(sdfg.arrays) == 3


def test_two_instances_bind_to_one_template_and_share_the_arena():
    pool = get_pool()
    _run(Outer())
    allocations = pool.stats()["allocations"]
    _run(Outer())
    stats = cc.stats()
    assert (stats["program_traces"], stats["program_binds"]) == (1, 1)
    assert stats["templates"] == 1
    # the second instance's scratch is the buffer the first one returned
    assert pool.stats()["allocations"] == allocations
    assert pool.stats()["live_bytes"] == 0


def test_different_shape_or_dtype_traces_another_template():
    _run(Outer())
    _run(Outer(shape=(10, 8, 4)), shape=(10, 8, 4))
    assert cc.stats()["templates"] == 2
    # same shape, other dtype: the guard is (shape, dtype)
    other = Outer(dtype=np.float32)
    q = np.ones(SHAPE)
    out = np.zeros(SHAPE)
    other(q, out)
    np.testing.assert_array_equal(out, 3.0)
    assert cc.stats()["templates"] == 3


def test_one_declaration_under_two_attributes_is_another_template():
    class TwoNames:
        def __init__(self, alias):
            self.a = transient(SHAPE)
            self.b = self.a if alias else transient(SHAPE)

        @orchestrate
        def __call__(self, q: np.ndarray, out: np.ndarray):
            _scale(q, self.a, 2.0, **FULL)
            _scale(q, self.b, 3.0, **FULL)
            _add(self.a, self.b, out, **FULL)

    q = np.ones(SHAPE)
    for alias, expected in ((False, 5.0), (True, 6.0), (False, 5.0)):
        out = np.zeros(SHAPE)
        TwoNames(alias)(q, out)
        np.testing.assert_array_equal(out, expected)
    stats = cc.stats()
    assert stats["templates"] == 2 and stats["program_binds"] == 1


def test_transient_passed_to_a_callback_is_an_error_naming_it():
    class Leaky:
        def __init__(self):
            self.scratch = transient(SHAPE)

        @orchestrate
        def __call__(self, q: np.ndarray):
            _scale(q, self.scratch, 2.0, **FULL)
            _touch(self.scratch)

    with pytest.raises(OrchestrationError, match="self_scratch.*callback"):
        Leaky()(np.ones(SHAPE))


def test_transient_as_a_top_level_argument_is_discarded_scratch():
    @orchestrate
    def program(q, tmp, out):
        _scale(q, tmp, 2.0, **FULL)
        _add(q, tmp, out, **FULL)

    q, out = np.ones(SHAPE), np.zeros(SHAPE)
    program(q, transient(SHAPE), out)
    np.testing.assert_array_equal(out, 3.0)


def test_callback_handed_only_containers_declares_them():
    """A plain function that gets arrays, constants and objects of the
    instance can touch no transient of the program, so it is no barrier
    for them; any other callable may reach anything."""
    from repro.sdfg.nodes import Callback

    class WithCallback:
        def __init__(self):
            self.tmp = transient(SHAPE)
            self.log = []
            self.recorder = _Recorder()

        @orchestrate
        def declared(self, q: np.ndarray, out: np.ndarray):
            _touch(q)
            _scale(q, self.tmp, 2.0, **FULL)
            _add(q, self.tmp, out, **FULL)

        @orchestrate
        def with_object(self, q: np.ndarray, out: np.ndarray):
            _record(q, self.log)
            _scale(q, self.tmp, 2.0, **FULL)
            _add(q, self.tmp, out, **FULL)

        @orchestrate
        def opaque(self, q: np.ndarray, out: np.ndarray):
            self.recorder(q)
            _scale(q, self.tmp, 2.0, **FULL)
            _add(q, self.tmp, out, **FULL)

    module = WithCallback()
    for name, declared in (("declared", ["q"]), ("with_object", ["q"]),
                           ("opaque", None)):
        program = getattr(module, name)
        program(np.ones(SHAPE), np.zeros(SHAPE))
        (callback,) = [n for n in program.sdfg.all_nodes()
                       if isinstance(n, Callback)]
        assert callback.reads == callback.writes == declared
        # an undeclared callback may read anything: the transient is
        # zeroed before it runs; a declared one leaves it alone
        fills = program._state.binding.plan.source.count(".fill(0)")
        assert fills == (0 if declared else 1)
    assert module.log == [float(SHAPE[0] * SHAPE[1] * SHAPE[2])]
    assert module.recorder.log == module.log


class _Recorder:
    def __init__(self):
        self.log = []

    def __call__(self, q):
        _record(q, self.log)


def _record(q, log):
    log.append(float(q.sum()))


# ---------------------------------------------------------------------------
# coverage decides the zero fill, and S202/S204 report the same reads
# ---------------------------------------------------------------------------


class Coverage:
    def __init__(self):
        self.tmp = transient(SHAPE)

    @orchestrate
    def inside(self, q: np.ndarray, out: np.ndarray):
        """Writes a sub-domain, reads within it."""
        _scale(q, self.tmp, 2.0, origin=(0, 1, 0), domain=(8, 6, 4))
        _average_x(self.tmp, out, **INNER)

    @orchestrate
    def outside(self, q: np.ndarray, out: np.ndarray):
        """Writes the interior, reads one column beyond it."""
        _scale(q, self.tmp, 2.0, **INNER)
        _average_x(self.tmp, out, **INNER)

    @orchestrate
    def unwritten(self, q: np.ndarray, out: np.ndarray):
        """Reads what nothing wrote."""
        _average_x(self.tmp, out, **INNER)
        _scale(q, self.tmp, 2.0, **FULL)


def _traced(name):
    module = Coverage()
    program = getattr(module, name)
    q = np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
    out = np.zeros(SHAPE)
    program(q, out)
    return program, q, out


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
def test_read_inside_what_was_written_needs_no_fill(backend, monkeypatch):
    monkeypatch.setattr(backends, "_default_backend", backend)
    program, q, out = _traced("inside")
    assert ".fill(0)" not in program._state.binding.plan.source
    assert lint_sdfg(program.sdfg) == []
    np.testing.assert_array_equal(
        out[1:-1, 1:-1], q[:-2, 1:-1] + q[2:, 1:-1]
    )


@pytest.mark.parametrize("backend", ["numpy", "compiled"])
@pytest.mark.parametrize("name, rule", [("outside", "S202"),
                                        ("unwritten", "S204")])
def test_uncovered_read_is_reported_and_zero_filled(name, rule, backend,
                                                    monkeypatch):
    monkeypatch.setattr(backends, "_default_backend", backend)
    program, q, out = _traced(name)
    (transient_name,) = program.sdfg.transients()
    source = program._state.binding.plan.source
    assert source.count(f"{transient_name}.fill(0)") == 1
    rules = {f.rule for f in lint_sdfg(program.sdfg)}
    assert rules == {rule}
    assert all(f.severity == "error" for f in lint_sdfg(program.sdfg))
    # deterministic, never garbage: the uncovered points read as zero
    # even when the arena hands out poisoned buffers
    from repro.resilience import chaos
    from repro.resilience.chaos import ChaosPlan

    previous = chaos.set_plan(ChaosPlan.from_spec("pool.poison:p=1.0"))
    try:
        again = np.zeros(SHAPE)
        program(q, again)
    finally:
        chaos.set_plan(previous)
    np.testing.assert_array_equal(again, out)
    assert np.isfinite(out).all()
    if name == "unwritten":
        assert not out.any()


# ---------------------------------------------------------------------------
# loops over a sequence the trace read (a variable number of tracers)
# ---------------------------------------------------------------------------


class Sweep:
    def __init__(self):
        self.tmp = transient(SHAPE)

    @orchestrate
    def __call__(self, fields: list, factor: float):
        for field in fields:
            _scale(field, self.tmp, factor, **FULL)
            _add(field, self.tmp, field, **FULL)


def test_loop_over_a_list_unrolls_and_guards_its_length():
    two = [np.ones(SHAPE), np.full(SHAPE, 2.0)]
    Sweep()(two, 2.0)
    np.testing.assert_array_equal(two[0], 3.0)
    np.testing.assert_array_equal(two[1], 6.0)
    again = [np.ones(SHAPE), np.ones(SHAPE)]
    Sweep()(again, 0.5)  # binds: same length, the scalar is a runtime one
    np.testing.assert_array_equal(again[1], 1.5)
    stats = cc.stats()
    assert (stats["program_traces"], stats["program_binds"]) == (1, 1)
    three = [np.ones(SHAPE) for _ in range(3)]
    Sweep()(three, 2.0)  # a third field is a third copy of the body
    for field in three:
        np.testing.assert_array_equal(field, 3.0)
    assert cc.stats()["program_traces"] == 2


def test_loop_over_something_else_is_still_an_error():
    @orchestrate
    def program(q, n):
        for _ in n:
            _scale(q, q, 2.0, **FULL)

    with pytest.raises(OrchestrationError, match="compile-time constant"):
        program(np.ones(SHAPE), np.ones(3))


@pytest.mark.traced
def test_program_span_says_how_much_scratch_it_owns():
    """``transients`` / ``transient_bytes`` / ``slab_bytes`` / ``values``
    accumulate per entry like ``bytes``: divided by the span's count
    they are the program's."""
    from repro import obs

    outer = Outer()
    for _ in range(3):
        _run(outer)
    span = obs.get_tracer().root.children["program.Outer"]
    assert span.count == 3
    assert span.attrs["transients"] == 3 * 1
    assert span.attrs["transient_bytes"] == 3 * int(np.prod(SHAPE)) * 8
    plan = outer.__call__._state.binding.plan
    assert span.attrs["slab_bytes"] == 3 * plan.runtime_bytes > 0
    assert span.attrs["values"] == 3 * len(plan.plan_offsets) >= 3
