"""The reachability census table cannot go stale: every owner row of
``DESIGN.md``'s "Reachability census" names a function that exists under
``src/repro`` (found by the census tool's own AST walk) and says which
kind of owner keeps it. A row left behind by a deleted or renamed
function fails here, not in a review."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _census_tool():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_owner_row_names_a_function_of_the_package():
    reach = _census_tool()
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    rows = [
        match for match in map(reach.OWNER_ROW.match, text.splitlines())
        if match
    ]
    assert len(rows) >= 50  # the pattern still matches how rows are written
    names = {name for _, name in reach.package_functions().values()}
    named = [f"{row.group(1)}:{row.group(2)}" for row in rows]
    assert len(named) == len(set(named)), "a function has two owner rows"
    assert sorted(set(named) - names) == []
    assert [
        name for name, row in zip(named, rows)
        if not row.group(3).startswith(reach.OWNER_KINDS)
    ] == []


def test_the_census_finds_every_function_once():
    """Every function of the package has a name of its own in the
    census (a property's setter is ``name.setter``), so an owner row
    owns exactly one function."""
    reach = _census_tool()
    functions = reach.package_functions()
    names = [name for _, name in functions.values()]
    assert len(names) == len(set(names)) > 1000


#: the census's profile writer with its object walk broken, as a rename
#: the walk misses breaks it
_RAISING = ('    codes = []\n',
            '    raise AttributeError("a renamed attribute")\n')


def test_a_process_that_cannot_write_its_profile_fails_the_census(
        tmp_path, capsys):
    """A dump that raised leaves a failure record: its entry point is
    ``FAILED`` and the census exits non-zero without printing a table
    that would call everything it reached "unreached"."""
    reach = _census_tool()
    tiny = [("tiny", ["-c", "pass"], {})]
    assert _RAISING[0] in reach.SITECUSTOMIZE
    broken = reach.SITECUSTOMIZE.replace(*_RAISING)
    (tmp_path / "intact").mkdir()
    assert reach._run_entry_points(tmp_path / "intact", tiny) == []
    (tmp_path / "broken").mkdir()
    assert reach._run_entry_points(tmp_path / "broken", tiny, broken) \
        == ["tiny"]
    capsys.readouterr()
    assert reach.main(tiny, broken) != 0
    out = capsys.readouterr().out
    assert "FAILED" in out and "census incomplete" in out
    assert "unreached" not in out


def test_a_restored_program_shows_what_it_was_traced_from(monkeypatch):
    """The census finds the stencils of a program that was restored, not
    traced, through the sources its template keeps — without decoding
    the template's SDFG."""
    from repro.runtime import compile_cache as cc
    from tests.orchestration.test_templates import Box, _add, _combine, _scale

    monkeypatch.delenv("REACH_CENSUS_OUT", raising=False)
    census = {}
    exec(_census_tool().SITECUSTOMIZE, census)  # noqa: S102
    cc.reset(clear=True)
    _combine(Box())
    cc.reset(clear=True)  # as a new process: the family is restored
    _combine(Box())
    stats = cc.stats()
    assert (stats["program_traces"], stats["programs_restored"]) == (0, 1)
    codes = census["_codes_of_objects"]()
    assert _scale._func.__code__ in codes and _add._func.__code__ in codes
    assert cc.stats()["sdfgs_decoded"] == 0
    cc.reset(clear=True)
