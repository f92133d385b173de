"""The two backends, the default-backend management and the one name
check every entry point makes."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
import repro.dsl.stencil  # noqa: F401 -- for the sys.modules lookup below
from repro.dsl import (
    Field,
    PARALLEL,
    UnknownBackendError,
    available_backends,
    computation,
    default_backend,
    interval,
    stencil,
)
from repro.dsl.backends import check_backend
from repro.orchestration import orchestrate

_STENCIL_MODULE = sys.modules["repro.dsl.stencil"]


@stencil
def _double(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = 2.0 * a


@orchestrate
def _double_program(a, out):
    _double(a, out, origin=(0, 0, 0), domain=(4, 4, 2))


def _plan_backends(stencil_obj):
    return sorted({key[0] for key in stencil_obj._plans})


# ---------------------------------------------------------------------------
# the two names
# ---------------------------------------------------------------------------
def test_builtins_are_available_and_lazily_resolvable():
    assert available_backends() == ("compiled", "numpy")
    for name in available_backends():
        assert check_backend(name) == name


def test_unknown_backend_error_names_registry_and_suggests():
    with pytest.raises(UnknownBackendError) as exc_info:
        check_backend("nunpy")
    err = exc_info.value
    assert isinstance(err, ValueError)  # old except-clauses keep working
    assert err.backend == "nunpy"
    assert err.available == ("compiled", "numpy")
    assert err.suggestion == "numpy"
    assert "did you mean 'numpy'?" in str(err)


def test_unknown_backend_without_near_miss_has_no_suggestion():
    with pytest.raises(UnknownBackendError) as exc_info:
        check_backend("fortran2008")
    assert exc_info.value.suggestion is None
    assert "did you mean" not in str(exc_info.value)


# ---------------------------------------------------------------------------
# the backend a stencil call runs
# ---------------------------------------------------------------------------
def test_stencil_call_uses_registered_backend():
    """A call's ``backend=`` picks the plan it runs, one per backend."""
    a = np.ones((4, 4, 2))
    _double._plans.clear()
    for backend in ("numpy", "compiled"):
        out = np.zeros_like(a)
        _double(a, out, backend=backend, origin=(0, 0, 0), domain=(4, 4, 2))
        np.testing.assert_array_equal(out, 2.0 * a)
    assert _plan_backends(_double) == ["compiled", "numpy"]


def test_stencil_call_with_unknown_backend_raises():
    a = np.ones((4, 4, 2))
    with pytest.raises(UnknownBackendError, match="recopding"):
        _double(a, np.zeros_like(a), backend="recopding",
                origin=(0, 0, 0), domain=(4, 4, 2))


def test_default_backend_drives_unpinned_stencils():
    a = np.ones((4, 4, 2))
    before = default_backend()
    other = "compiled" if before == "numpy" else "numpy"
    _double._plans.clear()
    with default_backend(other):
        _double(a, np.zeros_like(a), origin=(0, 0, 0), domain=(4, 4, 2))
    assert _plan_backends(_double) == [other]
    assert default_backend() == before


# ---------------------------------------------------------------------------
# default_backend getter / setter / context manager
# ---------------------------------------------------------------------------
def test_default_backend_getter_and_setter():
    before = default_backend()
    assert before in available_backends()
    guard = default_backend("compiled")
    try:
        assert default_backend() == "compiled"
    finally:
        with guard:  # __exit__ restores
            pass
    assert default_backend() == before


def test_default_backend_context_manager_nests_and_restores():
    before = default_backend()
    with default_backend("compiled") as outer:
        assert outer == "compiled"
        assert default_backend() == "compiled"
        with default_backend("numpy"):
            assert default_backend() == "numpy"
        assert default_backend() == "compiled"
    assert default_backend() == before


def test_default_backend_rejects_unknown_names():
    before = default_backend()
    with pytest.raises(UnknownBackendError):
        default_backend("dataflw")
    assert default_backend() == before  # unchanged on error


# ---------------------------------------------------------------------------
# an unknown name fails where it enters
# ---------------------------------------------------------------------------
def test_a_misspelt_repro_backend_fails_typed_in_a_program(tmp_path):
    """``REPRO_BACKEND`` names the default of a fresh process; misspelt,
    the first program that asks for it raises instead of running the
    NumPy emission."""
    script = tmp_path / "probe.py"
    script.write_text(textwrap.dedent("""
        import numpy as np
        from repro.dsl import (Field, PARALLEL, UnknownBackendError,
                               computation, interval, stencil)
        from repro.orchestration import orchestrate

        @stencil
        def double(a: Field, out: Field):
            with computation(PARALLEL), interval(...):
                out = 2.0 * a

        @orchestrate
        def program(a, out):
            double(a, out, origin=(0, 0, 0), domain=(4, 4, 2))

        a = np.ones((4, 4, 2))
        try:
            program(a, np.zeros_like(a))
        except UnknownBackendError as exc:
            print("raised", exc.suggestion)
        else:
            print("ran")
    """))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, str(script)], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src,
                        "REPRO_BACKEND": "nunpy"},
    ).stdout
    assert out.strip() == "raised numpy"


def test_compile_with_an_unknown_backend_raises():
    a = np.ones((4, 4, 2))
    _double_program.build(a, np.zeros_like(a))
    with pytest.raises(UnknownBackendError) as exc_info:
        _double_program.compile(backend="nunpy")
    assert exc_info.value.suggestion == "numpy"


# ---------------------------------------------------------------------------
# removed module globals stay removed
# ---------------------------------------------------------------------------
def test_stencil_module_has_no_valid_backends_tuple():
    assert not hasattr(type(_STENCIL_MODULE), "_VALID_BACKENDS")
    with pytest.raises(AttributeError):
        _STENCIL_MODULE._VALID_BACKENDS
