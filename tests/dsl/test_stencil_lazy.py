"""A stencil is parsed on first use: decorating one parses nothing, the
first call, trace or lint parses it exactly once, and a definition the
front end rejects still fails — naming the stencil — wherever it is first
used."""

import importlib
import pkgutil
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.dsl import PARALLEL, Field, computation, interval, stencil
from repro.dsl import extents, frontend
from repro.dsl.frontend import StencilSyntaxError
from repro.dsl.stencil import StencilObject


def _copy(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a


@pytest.fixture
def parses(monkeypatch):
    """The definitions ``parse_stencil`` is called on, in order."""
    seen = []
    real = frontend.parse_stencil

    def counting(func, externals=None):
        seen.append(func)
        time.sleep(0.01)  # keep the door open for a racing reader
        return real(func, externals)

    monkeypatch.setattr(frontend, "parse_stencil", counting)
    return seen


def test_decorating_parses_nothing_and_racing_readers_parse_once(parses):
    obj = stencil(_copy)
    assert parses == [] and obj.name == "_copy"
    start = threading.Barrier(8)
    got = [None] * 8

    def read(slot):
        start.wait(timeout=10)
        got[slot] = obj.definition

    threads = [threading.Thread(target=read, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert parses == [_copy]
    assert all(definition is got[0] for definition in got)
    assert obj.extents is obj.extents and parses == [_copy]


def test_a_name_override_applies_before_and_after_the_parse(parses):
    obj = stencil(name="renamed")(_copy)
    assert obj.name == "renamed" and parses == []
    assert obj.definition.name == "renamed"


def test_bare_calls_walk_the_ir_once_per_field_and_depth(monkeypatch):
    walked = []
    real = extents.k_access_bounds

    def counting(definition, name, nk):
        walked.append((name, nk))
        return real(definition, name, nk)

    monkeypatch.setattr(extents, "k_access_bounds", counting)
    obj = stencil(_copy)
    a, out = np.ones((4, 4, 3)), np.zeros((4, 4, 3))
    for _ in range(3):
        obj(a, out, origin=(0, 0, 0), domain=(4, 4, 2))
    obj(a, out, origin=(0, 0, 0), domain=(4, 4, 3))
    assert sorted(walked) == [("a", 2), ("a", 3), ("out", 2), ("out", 3)]
    assert out.sum() == a.sum()


BROKEN = '''
import numpy as np

from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.orchestration import orchestrate


@stencil
def broken(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        while True:
            out = a


@orchestrate
def program(a: np.ndarray, out: np.ndarray):
    broken(a, out, origin=(0, 0, 0), domain=(4, 4, 2))
'''


@pytest.fixture
def broken_module(tmp_path, monkeypatch):
    """A module whose stencil the front end rejects, imported from a file
    (the front end reads definitions back from their source)."""
    path = tmp_path / "broken_stencils.py"
    path.write_text(BROKEN)
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("broken_stencils")  # imports fine
    yield path, module
    sys.modules.pop("broken_stencils", None)


def test_a_rejected_definition_fails_at_its_first_call_and_trace(
        broken_module):
    _, module = broken_module
    a, out = np.ones((4, 4, 2)), np.zeros((4, 4, 2))
    for _ in range(2):  # and again: a failed parse is not remembered
        with pytest.raises(StencilSyntaxError,
                           match="stencil 'broken': .*unsupported statement"):
            module.broken(a, out)
    with pytest.raises(StencilSyntaxError, match="stencil 'broken'"):
        module.program(a, out)


def test_a_rejected_definition_fails_under_lint(broken_module, capsys):
    from repro.lint.cli import main

    path, _ = broken_module
    assert main([str(path)]) == 2
    assert "stencil 'broken': " in capsys.readouterr().err


def _package_stencils():
    """Every stencil of the package: module-level names and class
    attributes of every ``repro`` module."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rpartition(".")[2] == "__main__":
            continue
        module = importlib.import_module(info.name)
        for value in list(vars(module).values()):
            owners = [value]
            if isinstance(value, type) and value.__module__ == info.name:
                owners += list(vars(value).values())
            for obj in owners:
                if isinstance(obj, StencilObject):
                    found[id(obj)] = obj
    return list(found.values())


def test_every_stencil_of_the_package_parses():
    """Nothing parses a stencil at import any more: this is where a
    definition the front end rejects fails CI."""
    stencils = _package_stencils()
    assert len(stencils) >= 35
    for obj in stencils:
        assert obj.definition.name == obj.name
        assert obj.extents.max_halo() >= 0
