"""Every switch earns its place: a ``REPRO_*`` variable read under
``src/`` is set by at least one test or benchmark and is a row of the
README's "Environment variables" table — and the table lists nothing that
is no longer read. Every field of the configuration objects is read by
the code it configures. A switch nobody exercises, or a field nobody
reads, fails here, not in a review."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_READ = re.compile(r"""environ(?:\.get\(|\[)\s*["'](REPRO_[A-Z0-9_]+)["']""")
_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)
#: the configuration objects a caller builds: each field is a setting
_CONFIGS = {
    "DynamicalCoreConfig", "ServiceConfig", "ResilienceConfig", "GuardConfig",
}


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
    assert len(names) >= 7  # the pattern still matches how they are read
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


def test_every_config_field_is_read_outside_its_class():
    """A field is read as an attribute somewhere under ``src/`` other
    than in its own class's body (which only validates it)."""
    fields = {}  # class → (file, its lines, its field names)
    reads = []  # (file, line, attribute name)
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and node.name in _CONFIGS:
                names = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
                lines = range(node.lineno, node.end_lineno + 1)
                fields[node.name] = (path, lines, names)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                reads.append((path, node.lineno, node.attr))
    assert fields.keys() == _CONFIGS
    unread = [
        f"{cls}.{name}"
        for cls, (path, lines, names) in sorted(fields.items())
        for name in names
        if not any(
            attr == name and not (where == path and line in lines)
            for where, line, attr in reads
        )
    ]
    assert all(names for _, _, names in fields.values())
    assert unread == []
