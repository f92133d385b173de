"""Concurrent ast<->object conversion must be serialized.

CPython 3.11 keeps the ast module's recursion-depth counter in shared
per-interpreter state, so two threads running ``ast.parse`` or
``compile(<ast object>, ...)`` concurrently can clobber each other and
die with ``SystemError: AST constructor recursion depth mismatch``.
Orchestrated-program calls from rank threads hit exactly those paths,
so every repro conversion site takes ``repro._astsync.AST_LOCK``.

The stress tests are probabilistic reproducers (they flake without the
lock, pass deterministically with it); the cache test pins the hot-path
fix that removed ast.parse from every program call.
"""

import ast
import threading

from repro._astsync import AST_LOCK
from repro.orchestration.closure import get_function_ast
from repro.orchestration.preprocessor import try_const_eval


def _sample_function(self, a, b, c):
    x = a + b * c
    for i in range(3):
        x = x + i
    if x > 0:
        return x
    return -x


def _hammer(worker, n_threads=8, iterations=40):
    errors = []
    start = threading.Barrier(n_threads)

    def body():
        try:
            start.wait()
            for _ in range(iterations):
                worker()
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=body) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == [], f"concurrent ast conversion failed: {errors[:3]}"


def test_concurrent_get_function_ast_is_safe():
    def worker():
        node = get_function_ast(_sample_function)
        assert node.name == "_sample_function"

    _hammer(worker)


def test_concurrent_ast_object_compile_is_safe():
    expr = ast.parse("min(3, 4) + len('xy') * 2", mode="eval").body

    def worker():
        ok, value = try_const_eval(expr, {})
        assert ok and value == 7

    _hammer(worker)


def test_ast_lock_is_reentrant():
    with AST_LOCK:
        with AST_LOCK:
            node = get_function_ast(_sample_function)
    assert isinstance(node, ast.FunctionDef)


def test_program_caches_parameter_names():
    import numpy as np

    from repro.dsl import Field, stencil, computation, interval, PARALLEL
    from repro.orchestration import orchestrate

    @stencil
    def _copy(q: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = q + 0.0

    class Model:
        def __init__(self):
            self.q = np.random.default_rng(0).random((10, 10, 4))
            self.out = np.zeros_like(self.q)

        @orchestrate
        def step(self, factor: float):
            _copy(self.q, self.out)

    model = Model()
    program = Model.step.__get__(model)
    assert program._state.param_names is None
    program(1.0)
    assert program._state.param_names == ["factor"]
    first = program._state.param_names
    program(2.0)
    assert program._state.param_names is first  # parsed once, reused
    np.testing.assert_array_equal(model.out, model.q)
