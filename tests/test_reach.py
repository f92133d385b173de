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
