"""Backend registry, default-backend management and deprecation shims."""

import sys

import numpy as np
import pytest

import repro.dsl.stencil  # noqa: F401 -- for the sys.modules lookup below
from repro.dsl import (
    Field,
    PARALLEL,
    UnknownBackendError,
    available_backends,
    computation,
    default_backend,
    get_backend,
    interval,
    register_backend,
    stencil,
)
from repro.dsl.backends import current_default_backend, unregister_backend

_STENCIL_MODULE = sys.modules["repro.dsl.stencil"]


@stencil
def _double(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = 2.0 * a


class _RecordingExecutor:
    """Backend executor that records calls instead of computing."""

    calls = []

    def __init__(self, stencil_object):
        self.stencil_object = stencil_object

    def __call__(self, fields, scalars, origin, domain, bounds):
        self.calls.append((self.stencil_object.name, domain))


@pytest.fixture
def recording_backend():
    _RecordingExecutor.calls = []
    register_backend("recording", _RecordingExecutor)
    try:
        yield _RecordingExecutor
    finally:
        unregister_backend("recording")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_builtins_are_available_and_lazily_resolvable():
    names = available_backends()
    assert "numpy" in names and "compiled" in names
    assert names == tuple(sorted(names))
    assert callable(get_backend("numpy"))
    assert callable(get_backend("compiled"))


def test_register_lookup_unregister(recording_backend):
    assert get_backend("recording") is recording_backend
    assert "recording" in available_backends()
    unregister_backend("recording")
    assert "recording" not in available_backends()
    unregister_backend("recording")  # idempotent


def test_duplicate_registration_requires_replace(recording_backend):
    with pytest.raises(ValueError, match="already registered"):
        register_backend("recording", recording_backend)
    register_backend("recording", recording_backend, replace=True)


def test_registration_validates_name_and_factory():
    with pytest.raises(TypeError):
        register_backend("", _RecordingExecutor)
    with pytest.raises(TypeError):
        register_backend(None, _RecordingExecutor)
    with pytest.raises(TypeError):
        register_backend("bad", "not-callable")


def test_unknown_backend_error_names_registry_and_suggests():
    with pytest.raises(UnknownBackendError) as exc_info:
        get_backend("nunpy")
    err = exc_info.value
    assert isinstance(err, ValueError)  # old except-clauses keep working
    assert err.backend == "nunpy"
    assert "numpy" in err.available and "compiled" in err.available
    assert err.suggestion == "numpy"
    assert "did you mean 'numpy'?" in str(err)


def test_unknown_backend_without_near_miss_has_no_suggestion():
    with pytest.raises(UnknownBackendError) as exc_info:
        get_backend("fortran2008")
    assert exc_info.value.suggestion is None
    assert "did you mean" not in str(exc_info.value)


# ---------------------------------------------------------------------------
# registered backends drive stencil dispatch
# ---------------------------------------------------------------------------
def test_stencil_call_uses_registered_backend(recording_backend):
    a = np.ones((4, 4, 2))
    _double(a, np.zeros_like(a), backend="recording",
            origin=(0, 0, 0), domain=(4, 4, 2))
    assert recording_backend.calls == [("_double", (4, 4, 2))]


def test_stencil_call_with_unknown_backend_raises(recording_backend):
    a = np.ones((4, 4, 2))
    with pytest.raises(UnknownBackendError, match="recopding"):
        _double(a, np.zeros_like(a), backend="recopding",
                origin=(0, 0, 0), domain=(4, 4, 2))


def test_default_backend_drives_unpinned_stencils(recording_backend):
    a = np.ones((4, 4, 2))
    with default_backend("recording"):
        assert _double.backend == "recording"
        _double(a, np.zeros_like(a), origin=(0, 0, 0), domain=(4, 4, 2))
    assert recording_backend.calls
    assert _double.backend == current_default_backend() != "recording"


# ---------------------------------------------------------------------------
# default_backend getter / setter / context manager
# ---------------------------------------------------------------------------
def test_default_backend_getter_and_setter():
    before = default_backend()
    assert before == current_default_backend()
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
# removed module globals stay removed
# ---------------------------------------------------------------------------
def test_stencil_module_has_no_valid_backends_tuple():
    assert not hasattr(type(_STENCIL_MODULE), "_VALID_BACKENDS")
    with pytest.raises(AttributeError):
        _STENCIL_MODULE._VALID_BACKENDS
