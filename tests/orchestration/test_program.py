"""Orchestration tests: whole-program SDFG construction and execution."""

import ast

import numpy as np
import pytest

from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.orchestration import orchestrate, preprocess_function
from repro.orchestration.closure import resolve_closure
from repro.orchestration.program import OrchestrationError
from repro.sdfg.nodes import Callback, Tasklet


@stencil
def _scale(a: Field, out: Field, factor: float):
    with computation(PARALLEL), interval(...):
        out = a * factor


@stencil
def _add(a: Field, b: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a + b


SHAPE = (6, 6, 4)


class Module:
    """A model module in the paper's OOP style (Sec. IV-A)."""

    def __init__(self):
        self.tmp = np.zeros(SHAPE)

    @orchestrate
    def __call__(self, q: np.ndarray, out: np.ndarray, dt: float):
        _scale(q, self.tmp, dt, origin=(0, 0, 0), domain=SHAPE)
        _add(q, self.tmp, out, origin=(0, 0, 0), domain=SHAPE)


def test_closure_resolution_fig6():
    class ClassA:
        def __init__(self, arr):
            self.q = arr

        def method(self, a):
            self.q = a * self.q
            return None

    inst = ClassA(np.ones(3))
    node, bindings = resolve_closure(ClassA.method, inst)
    assert "__g_self_q" in bindings
    assert bindings["__g_self_q"] is inst.q
    # the free function signature no longer has self
    assert [a.arg for a in node.args.args] == ["a"]


def test_source_is_parsed_and_rewritten_once_per_function(monkeypatch):
    from repro.orchestration import closure

    parsed = []
    real = closure.inspect.getsource
    monkeypatch.setattr(
        closure.inspect, "getsource",
        lambda func: (parsed.append(func), real(func))[1],
    )

    class Twice:
        def __init__(self):
            self.tmp = np.zeros(SHAPE)

        def method(self, q):
            _scale(q, self.tmp, 2.0, origin=(0, 0, 0), domain=SHAPE)

    node, bindings = resolve_closure(Twice.method, Twice())
    again, other = resolve_closure(Twice.method, Twice())
    assert again is node  # the rewritten tree is shared ...
    assert bindings["__g_self_tmp"] is not other["__g_self_tmp"]  # values not
    assert closure.get_function_ast(Twice.method) is \
        closure.get_function_ast(Twice.method)
    assert parsed == [Twice.method]
    # consumers copy: preprocessing leaves the shared tree untouched
    before = ast.dump(node)
    preprocess_function(node, {"SHAPE": SHAPE})
    assert ast.dump(node) == before


def test_orchestrated_method_builds_and_runs():
    mod = Module()
    q = np.random.default_rng(0).random(SHAPE)
    out = np.zeros(SHAPE)
    mod(q, out, 0.5)
    np.testing.assert_allclose(out, q + 0.5 * q)
    # dt is a runtime scalar: changing it does NOT trigger a rebuild
    prog = mod.__call__ if hasattr(mod.__call__, "sdfg") else None


def test_runtime_scalar_changes_without_rebuild():
    mod = Module()
    q = np.random.default_rng(1).random(SHAPE)
    out = np.zeros(SHAPE)
    call = type(mod).__dict__["__call__"].__get__(mod)
    call(q, out, 0.5)
    sdfg_first = call.sdfg
    call(q, out, 2.0)
    assert call.sdfg is sdfg_first  # same build reused
    np.testing.assert_allclose(out, q + 2.0 * q)


def test_array_consolidation_by_identity():
    """The same array reached via two attribute paths is ONE container."""

    shared = np.zeros(SHAPE)

    class A:
        def __init__(self):
            self.x = shared

    class B:
        def __init__(self):
            self.y = shared

    a, b = A(), B()

    @orchestrate
    def prog(q):
        _scale(q, a.x, 2.0, origin=(0, 0, 0), domain=SHAPE)
        _add(q, b.y, b.y, origin=(0, 0, 0), domain=SHAPE)

    q = np.random.default_rng(2).random(SHAPE)
    prog.build(q)
    # only q and the shared array: 2 non-transient containers
    non_transient = [n for n, d in prog.sdfg.arrays.items() if not d.transient]
    assert len(non_transient) == 2


def test_counted_loop_becomes_loop_region():
    class Stepper:
        def __init__(self):
            self.acc = np.zeros(SHAPE)
            self.n_split = 5

        @orchestrate
        def run(self, q):
            for _ in range(self.n_split):
                _add(self.acc, q, self.acc, origin=(0, 0, 0), domain=SHAPE)

    s = Stepper()
    q = np.ones(SHAPE)
    runner = type(s).__dict__["run"].__get__(s)
    runner(q)
    assert len(runner.sdfg.loops) == 1
    assert runner.sdfg.loops[0].count == 5
    np.testing.assert_allclose(s.acc, 5.0)


def test_dead_branch_from_config_constant():
    class Core:
        def __init__(self, hydrostatic):
            self.hydrostatic = hydrostatic
            self.buf = np.zeros(SHAPE)

        @orchestrate
        def step(self, q):
            if self.hydrostatic:
                _scale(q, self.buf, 0.0, origin=(0, 0, 0), domain=SHAPE)
            else:
                _scale(q, self.buf, 2.0, origin=(0, 0, 0), domain=SHAPE)

    core = Core(hydrostatic=False)
    q = np.ones(SHAPE)
    stepper = type(core).__dict__["step"].__get__(core)
    stepper(q)
    np.testing.assert_allclose(core.buf, 2.0)
    # only one stencil call in the graph: the dead branch was eliminated
    assert len(stepper.sdfg.all_kernels()) == 1


def test_callback_fallback_and_pystate_ordering():
    log = []

    def unparseable(tag):
        log.append(tag)

    class WithCallback:
        def __init__(self):
            self.buf = np.zeros(SHAPE)

        @orchestrate
        def step(self, q):
            unparseable("before")
            _scale(q, self.buf, 3.0, origin=(0, 0, 0), domain=SHAPE)
            unparseable("after")

    w = WithCallback()
    stepper = type(w).__dict__["step"].__get__(w)
    stepper(np.ones(SHAPE))
    assert log == ["before", "after"]
    callbacks = [
        n for s in stepper.sdfg.states for n in s.nodes
        if isinstance(n, Callback)
    ]
    assert len(callbacks) == 2
    reads, writes = stepper.sdfg.states[0].node_reads_writes(callbacks[0])
    assert "__pystate" in reads and "__pystate" in writes


def test_nested_orchestrated_modules_inline():
    inner_mod = Module()

    class Outer:
        def __init__(self):
            self.result = np.zeros(SHAPE)

        @orchestrate
        def run(self, q, dt: float):
            inner_mod(q, self.result, dt)
            _scale(self.result, self.result, 2.0,
                   origin=(0, 0, 0), domain=SHAPE)

    outer = Outer()
    q = np.random.default_rng(3).random(SHAPE)
    runner = type(outer).__dict__["run"].__get__(outer)
    runner(q, 0.5)
    np.testing.assert_allclose(outer.result, 2.0 * (q + 0.5 * q))
    # no callbacks: everything inlined
    assert not any(
        isinstance(n, Callback)
        for s in runner.sdfg.states
        for n in s.nodes
    )


def test_scalar_arithmetic_becomes_tasklet():
    class Half:
        def __init__(self):
            self.buf = np.zeros(SHAPE)

        @orchestrate
        def step(self, q, dt: float):
            _scale(q, self.buf, dt / 2.0, origin=(0, 0, 0), domain=SHAPE)

    h = Half()
    stepper = type(h).__dict__["step"].__get__(h)
    stepper(np.ones(SHAPE), 3.0)
    np.testing.assert_allclose(h.buf, 1.5)
    tasklets = [
        n for s in stepper.sdfg.states for n in s.nodes
        if isinstance(n, Tasklet)
    ]
    assert len(tasklets) == 1


def test_unresolvable_statement_raises():
    @orchestrate
    def bad(q):
        x = q + q  # array arithmetic between stencils is not data-centric
        _scale(x, x, 1.0, origin=(0, 0, 0), domain=SHAPE)

    with pytest.raises(OrchestrationError):
        bad.build(np.ones(SHAPE))


def test_orchestration_stats():
    mod = Module()
    q = np.zeros(SHAPE)
    out = np.zeros(SHAPE)
    call = type(mod).__dict__["__call__"].__get__(mod)
    call(q, out, 1.0)
    stats = call.sdfg.stats()
    assert stats["unique_kernels"] == 2
    assert stats["states"] >= 1
    assert stats["containers"] >= 3
