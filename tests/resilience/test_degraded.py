"""Degraded-mode execution: a failing compiled backend transparently
re-executes on the ``numpy`` backend, the NumPy emission of the same
lowering, with the same bits; a host without a C compiler runs that
emission from the start, warned once."""

import warnings

import numpy as np
import pytest

from repro import resilience
from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.dsl.oracle import run_oracle
from repro.orchestration import orchestrate
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
    """``a`` as the definition says (:mod:`repro.dsl.oracle`)."""
    ref = _inputs()
    origin, domain = _axpy._resolve_domain(ref, None, None)
    run_oracle(_axpy, ref, {"alpha": 2.5}, origin=origin, domain=domain)
    return ref["a"]


def _falls_back_after_one_consult(spec):
    """The fallback runs the NumPy emission of the same lowering without
    consulting ``compile.fail`` again: one consult for the failing call,
    so even a fault at every consult is recovered from, and later
    occurrence numbers do not move. Returns the plan."""
    _axpy._plans.clear()  # compile again, as on a first call
    plan = ChaosPlan.from_spec(spec)
    chaos.set_plan(plan)
    fields = _inputs()
    with pytest.warns(FallbackWarning, match="re-executed on the NumPy"):
        _axpy(**fields, alpha=2.5, backend="compiled")
    assert plan.consults("compile.fail") == 1
    np.testing.assert_array_equal(fields["a"], _reference())
    summary = resilience.summary()
    assert summary["counters"]["fallbacks"] == 1
    (entry,) = summary["fallback_log"]
    assert entry[0] == "_axpy" and entry[1] == "compiled"
    assert "InjectedCompileError" in entry[2]
    return plan


def test_injected_compile_failure_falls_back_bit_identical():
    plan = _falls_back_after_one_consult("compile.fail@1")
    # the injection is one-shot: the next call compiles and runs clean
    fields2 = _inputs()
    _axpy(**fields2, alpha=2.5, backend="compiled")
    assert plan.consults("compile.fail") == 2
    np.testing.assert_array_equal(fields2["a"], _reference())
    assert resilience.summary()["counters"]["fallbacks"] == 1


def test_certain_compile_failure_falls_back_at_every_call():
    plan = _falls_back_after_one_consult("compile.fail:p=1.0")
    # nothing compiled, so the next call consults once more and falls
    # back again
    fields2 = _inputs()
    with pytest.warns(FallbackWarning):
        _axpy(**fields2, alpha=2.5, backend="compiled")
    assert plan.consults("compile.fail") == 2
    np.testing.assert_array_equal(fields2["a"], _reference())
    assert resilience.summary()["counters"]["fallbacks"] == 2


def test_real_backend_failure_falls_back_too(monkeypatch):
    """A compiled plan that raises when it runs (not an injected fault)
    is re-executed on the NumPy emission too."""
    from repro.runtime import compile_cache

    def exploding(sdfg, backend):
        def plan(arrays, scalars):
            raise RuntimeError("flaky accelerator")
        return plan

    monkeypatch.setattr(compile_cache, "get_or_compile", exploding)
    _axpy._plans.clear()
    try:
        fields = _inputs()
        with pytest.warns(FallbackWarning, match="flaky accelerator"):
            _axpy(**fields, alpha=2.5, backend="compiled")
        np.testing.assert_array_equal(fields["a"], _reference())
    finally:
        _axpy._plans.clear()


def test_numpy_backend_failures_never_loop(monkeypatch):
    """A failure on the fallback backend itself propagates (no
    fallback-to-self recursion)."""
    from repro.runtime import compile_cache

    @stencil
    def _inc(a: Field):
        with computation(PARALLEL), interval(...):
            a = a + 1.0

    def broken(sdfg, backend):
        def plan(arrays, scalars):
            raise RuntimeError("numpy backend broken")
        return plan

    monkeypatch.setattr(compile_cache, "_get_or_compile", broken)
    with pytest.raises(RuntimeError, match="numpy backend broken"):
        _inc(a=np.ones((8, 8, 3)), backend="numpy")
    assert resilience.summary()["counters"]["fallbacks"] == 0


def test_argument_errors_stay_loud():
    """Binding/validation errors are user errors, not backend failures —
    they must not be degraded away."""
    with pytest.raises(TypeError, match="missing argument"):
        _axpy(a=np.zeros((4, 4, 2)), backend="compiled")


@orchestrate
def _axpy_program(a, x, y):
    _axpy(a, x, y, 2.5, origin=(1, 1, 0), domain=(8, 7, 4))


def _warned_unavailable(record):
    return [w for w in record if issubclass(w.category, RuntimeWarning)
            and "compiled backend unavailable" in str(w.message)]


#: a host with no C compiler: no engine at all, or the C engine forced
#: where the compiler it names does not exist
_NO_TOOLCHAIN = {
    "none": {"REPRO_JIT": "none"},
    "cgen_without_cc": {
        "REPRO_JIT": "cgen", "REPRO_CC": "/nonexistent/repro-no-cc",
    },
}


@pytest.mark.parametrize("first, toolchain", [
    ("stencil", "none"), ("program", "none"),
    ("stencil", "cgen_without_cc"), ("program", "cgen_without_cc"),
], ids=["stencil", "program", "stencil-cgen_without_cc",
        "program-cgen_without_cc"])
def test_without_a_toolchain_compiled_warns_once_and_runs_numpy(
    first, toolchain, monkeypatch
):
    """A host with no C compiler has one path: a stencil called with
    ``backend="compiled"`` and a program pinned to ``compiled`` run the
    NumPy emission, bit-identical to the definition, and the process is
    told once, by whichever of them asks first. Nothing is lowered for
    the compiled backend on the way: no ``compiled`` request is counted,
    whether no engine resolved or the C engine was forced."""
    from repro.runtime import compile_cache, jit

    for name, value in _NO_TOOLCHAIN[toolchain].items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(compile_cache, "_WARNED", [False])
    jit.reset(engine=True)
    compile_cache.reset(clear=True)
    _axpy._plans.clear()
    want = _reference()
    assert _axpy._resolve_domain(_inputs(), None, None) \
        == ((1, 1, 0), (8, 7, 4))

    def call_stencil():
        fields = _inputs()
        _axpy(**fields, alpha=2.5, backend="compiled")
        return fields["a"]

    def call_program():
        fields = _inputs()
        _axpy_program.build(fields["a"], fields["x"], fields["y"])
        plan = _axpy_program.compile(backend="compiled")
        assert plan.compiled_kernels == []
        _axpy_program(fields["a"], fields["x"], fields["y"])
        return fields["a"]

    calls = {"stencil": call_stencil, "program": call_program}
    order = [first] + [name for name in calls if name != first]
    try:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            for name in order:
                got = calls[name]()
                assert len(_warned_unavailable(record)) == 1, name
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(calls[name](), want)
        by_backend = compile_cache.stats()["by_backend"]
        assert "compiled" not in by_backend and by_backend["numpy"]["misses"]
        (warned,) = _warned_unavailable(record)
        assert "no JIT engine" in str(warned.message)
    finally:
        monkeypatch.undo()
        jit.reset(engine=True)
        _axpy._plans.clear()
