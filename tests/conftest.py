"""Shared fixtures for the test suite.

Tests marked ``@pytest.mark.traced`` run with ``repro.obs`` tracing
enabled on a freshly reset default tracer; the previous tracer state
(enabled flag and recorded span tree) is restored afterwards, so a
``REPRO_TRACE=1 python -m pytest`` run — the traced variant of tier-1 —
keeps its own accumulated spans across unmarked tests.

Tests marked ``@pytest.mark.deep`` are the part of a matrix tier-1 only
samples; they run under ``--deep`` (the CI job that owns the matrix).

Every test reads and writes *program records* (traced templates, lowered
plans: ``repro.runtime.compile_cache``) in an empty directory of its own,
so that what it counts — ``program_traces``, cache misses — depends
neither on an earlier test nor on an earlier session. The kernels stay
in the shared ``REPRO_JIT_DIR``: recompiling them would add minutes.
A build a test handed to the JIT's background builder ends with the
test, so that nothing of it lands in the next one.
"""

import itertools

import pytest

from repro.obs import tracer as _tracer_mod
from repro.runtime import compile_cache as _compile_cache
from repro.runtime import jit as _jit

_RECORD_DIRS = itertools.count()


@pytest.fixture(autouse=True)
def _own_program_records(tmp_path_factory, monkeypatch):
    # not created here: the first record written makes it
    monkeypatch.setattr(
        _compile_cache, "RECORDS_DIR",
        str(tmp_path_factory.getbasetemp() / f"records-{next(_RECORD_DIRS)}"),
    )
    yield
    _jit.wait()


def pytest_addoption(parser):
    parser.addoption(
        "--deep", action="store_true", default=False,
        help="also run the tests marked 'deep' (full matrices)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "traced: run the test with repro.obs tracing enabled on a "
        "fresh span tree (previous tracer state restored afterwards)",
    )
    config.addinivalue_line(
        "markers",
        "deep: part of a matrix that tier-1 samples; runs under --deep",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--deep"):
        return
    skip = pytest.mark.skip(reason="full matrix: run with --deep")
    for item in items:
        if item.get_closest_marker("deep") is not None:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def _traced_marker(request):
    if request.node.get_closest_marker("traced") is None:
        yield
        return
    tracer = _tracer_mod.get_tracer()
    saved = (tracer.enabled, tracer.root, tracer._stack)
    tracer.reset()
    tracer.enable()
    try:
        yield
    finally:
        tracer.enabled, tracer.root, tracer._stack = saved
