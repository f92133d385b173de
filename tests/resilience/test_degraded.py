"""Degraded-mode execution: a failing compiled backend transparently
re-executes on the bit-exact NumPy debug backend."""

import numpy as np
import pytest

from repro import resilience
from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.dsl.backends import register_backend, unregister_backend
from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan
from repro.resilience.errors import FallbackWarning


@stencil
def _axpy(a: Field, x: Field, y: Field, alpha: float):
    with computation(PARALLEL), interval(...):
        a = alpha * x + y[1, 0, 0]


def _inputs(seed=0):
    rng = np.random.default_rng(seed)
    shape = (10, 9, 4)
    return {
        "a": np.zeros(shape),
        "x": rng.random(shape),
        "y": rng.random(shape),
    }


def _reference():
    ref = _inputs()
    _axpy(**ref, alpha=2.5, backend="numpy")
    return ref["a"]


def test_injected_compile_failure_falls_back_bit_identical():
    chaos.set_plan(ChaosPlan.from_spec("compile.fail@1"))
    fields = _inputs()
    with pytest.warns(FallbackWarning, match="re-executed on the NumPy"):
        _axpy(**fields, alpha=2.5, backend="compiled")
    np.testing.assert_array_equal(fields["a"], _reference())
    summary = resilience.summary()
    assert summary["counters"]["fallbacks"] == 1
    (entry,) = summary["fallback_log"]
    assert entry[0] == "_axpy" and entry[1] == "compiled"
    assert "InjectedCompileError" in entry[2]
    # the injection is one-shot: the next call compiles and runs clean
    fields2 = _inputs()
    _axpy(**fields2, alpha=2.5, backend="compiled")
    np.testing.assert_array_equal(fields2["a"], _reference())
    assert resilience.summary()["counters"]["fallbacks"] == 1


def test_real_backend_failure_falls_back_too():
    class _Exploding:
        def __init__(self, stencil_object):
            self.stencil_object = stencil_object

        def __call__(self, fields, scalars, origin, domain, bounds):
            raise RuntimeError("flaky accelerator")

    register_backend("exploding", _Exploding)
    try:
        fields = _inputs()
        with pytest.warns(FallbackWarning, match="flaky accelerator"):
            _axpy(**fields, alpha=2.5, backend="exploding")
        np.testing.assert_array_equal(fields["a"], _reference())
    finally:
        unregister_backend("exploding")


def test_numpy_backend_failures_never_loop():
    """A failure on the fallback backend itself propagates (no
    fallback-to-self recursion)."""

    @stencil
    def _inc(a: Field):
        with computation(PARALLEL), interval(...):
            a = a + 1.0

    def _boom(fields, scalars, origin, domain, bounds):
        raise RuntimeError("numpy backend broken")

    _inc._executors["numpy"] = _boom
    with pytest.raises(RuntimeError, match="numpy backend broken"):
        _inc(a=np.ones((8, 8, 3)), backend="numpy")
    assert resilience.summary()["counters"]["fallbacks"] == 0


def test_argument_errors_stay_loud():
    """Binding/validation errors are user errors, not backend failures —
    they must not be degraded away."""
    with pytest.raises(TypeError, match="missing argument"):
        _axpy(a=np.zeros((4, 4, 2)), backend="compiled")
