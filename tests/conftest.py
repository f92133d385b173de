"""Shared fixtures for the test suite.

Tests marked ``@pytest.mark.traced`` run with ``repro.obs`` tracing
enabled on a freshly reset default tracer; the previous tracer state
(enabled flag and recorded span tree) is restored afterwards, so a
``REPRO_TRACE=1 python -m pytest`` run — the traced variant of tier-1 —
keeps its own accumulated spans across unmarked tests.

Tests marked ``@pytest.mark.deep`` are the part of a matrix tier-1 only
samples; they run under ``--deep`` (the CI job that owns the matrix).
"""

import pytest

from repro.obs import tracer as _tracer_mod


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
