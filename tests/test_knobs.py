"""Every environment switch earns its place: a ``REPRO_*`` variable read
under ``src/`` is set by at least one test or benchmark and is a row of
the README's "Environment variables" table — and the table lists nothing
that is no longer read. A switch nobody exercises fails here, not in a
review."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_READ = re.compile(r"""environ(?:\.get\(|\[)\s*["'](REPRO_[A-Z0-9_]+)["']""")
_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)


def _text(*directories):
    return "\n".join(
        path.read_text(errors="replace")
        for directory in directories
        for path in sorted((ROOT / directory).rglob("*"))
        if path.is_file() and path != pathlib.Path(__file__).resolve()
        and "__pycache__" not in path.parts
        and ".bench_build" not in path.parts
    )


def _read_by_the_package():
    names = set(_READ.findall(_text("src")))
    assert len(names) >= 10  # the pattern still matches how they are read
    return names


def test_every_switch_is_set_by_a_test_or_a_benchmark():
    exercised = set(_NAME.findall(_text("tests", "benchmarks")))
    assert _read_by_the_package() - exercised == set()


def test_the_readme_table_lists_exactly_the_switches_read():
    readme = (ROOT / "README.md").read_text()
    _, _, section = readme.partition("## Environment variables")
    table = _ROW.findall(section.partition("\n## ")[0])
    assert len(table) == len(set(table))
    assert set(table) == _read_by_the_package()
