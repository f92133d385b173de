"""Every switch earns its place: a ``REPRO_*`` variable read under
``src/`` is set by at least one test or benchmark and is a row of the
README's "Environment variables" table — and the table lists nothing that
is no longer read. Every field of the configuration objects is read by
the code it configures. Every option a user can set — the keyword-only
parameters of the public entry points, the fields of the service and
resilience configurations and the variables, and in the library those
entry points call every defaulted parameter, configuration field and
lint flag — is a row of DESIGN.md's "Option census" that names the entry
point setting it, or its owner. A switch nobody exercises, a field
nobody reads, or an option with neither setter nor owner fails here, not
in a review."""

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
    assert len(names) >= 6  # the pattern still matches how they are read
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


# ---------------------------------------------------------------------------
# the option census (DESIGN.md, "Option census")
# ---------------------------------------------------------------------------

#: how a row spells the function → (file under ``src/repro``, qualname)
OPTION_FUNCTIONS = {
    "run": ("run/__init__.py", "run"),
    "EnsembleDriver": ("run/driver.py", "EnsembleDriver.__init__"),
    "EnsembleDriver.run": ("run/driver.py", "EnsembleDriver.run"),
    "build_core": ("run/driver.py", "build_core"),
    "DynamicalCore": ("fv3/dyncore.py", "DynamicalCore.__init__"),
}
#: the second ring, the library the entry points call directly: every
#: parameter with a default is an option (a decorator's bare ``func`` is
#: not: ``@stencil`` is the call without options)
LIBRARY_FUNCTIONS = {
    "ProcessRankExecutor": ("runtime/procs.py",
                            "ProcessRankExecutor.__init__"),
    "RankExecutor": ("runtime/ranks.py", "RankExecutor.__init__"),
    "stencil": ("dsl/stencil.py", "stencil"),
    "StencilObject": ("dsl/stencil.py", "StencilObject.__init__"),
    "StencilObject.__call__": ("dsl/stencil.py", "StencilObject.__call__"),
    "orchestrate": ("orchestration/program.py", "orchestrate"),
    "make_storage": ("dsl/storage.py", "make_storage"),
    "OptimizationPipeline.run": ("core/pipeline.py",
                                 "OptimizationPipeline.run"),
    "make_evaluator": ("core/autotune.py", "make_evaluator"),
    "tune_cutout": ("core/autotune.py", "tune_cutout"),
    "extract_patterns": ("core/transfer.py", "extract_patterns"),
    "transfer_patterns": ("core/transfer.py", "transfer_patterns"),
    "apply_exhaustively": ("sdfg/transformations/base.py",
                           "apply_exhaustively"),
    "apply_schedule_heuristics": ("core/heuristics.py",
                                  "apply_schedule_heuristics"),
    "state_cutouts": ("sdfg/cutout.py", "state_cutouts"),
    "ForecastService": ("serve/service.py", "ForecastService.__init__"),
    "ServeMetrics": ("serve/metrics.py", "ServeMetrics.__init__"),
    "obs.median_time": ("obs/timing.py", "median_time"),
    "jit.sweep_stale_tmps": ("runtime/jit.py", "sweep_stale_tmps"),
    "register_scenario": ("scenarios/base.py", "register_scenario"),
}
#: every constructor of a class here is an option function too
TRANSFORMATIONS = "sdfg/transformations"
#: the command-line tool whose flags are options, as ``repro.lint --comm``
LINT_CLI = ("repro.lint", "lint/cli.py")
#: the configurations whose fields are options (``DynamicalCoreConfig``
#: is the model's namelist: the scenarios set it)
OPTION_CONFIGS = ("ServiceConfig", "ResilienceConfig", "GuardConfig",
                  "StorageSpec", "PipelineOptions", "ForecastRequest")
OWNER_KINDS = ("entry point", "deployment", "error path", "safety", "API")
_OPTION_ROW = re.compile(
    r"^\| `([^`]+)` \| ([a-zA-Z ]+) \| (.+?) \|\s*$", re.MULTILINE
)
_FIRST_CODE = re.compile(r"`([^`]+)`")


def option_function(name):
    """The ``def`` of a function of :data:`OPTION_FUNCTIONS` or
    :data:`LIBRARY_FUNCTIONS`."""
    path, qualname = {**OPTION_FUNCTIONS, **LIBRARY_FUNCTIONS}[name]
    path = ROOT / "src" / "repro" / path
    scope = ast.parse(path.read_text(), str(path)).body
    for part in qualname.split("."):
        (node,) = [n for n in scope if getattr(n, "name", None) == part]
        scope = node.body
    return node


def _defaulted(function):
    """The names of a ``def``'s parameters that have a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    return [a.arg for a in positional[len(positional) - len(args.defaults):]
            if a.arg != "func"] + [
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _constructors():
    """``{class name: its __init__}`` of every transformation."""
    return {
        node.name: stmt
        for path in sorted((ROOT / "src" / "repro" / TRANSFORMATIONS)
                           .glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
    }


def _flags():
    """The ``--flags`` the lint CLI declares."""
    path = ROOT / "src" / "repro" / LINT_CLI[1]
    return [
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value.startswith("--")
    ]


def code_options():
    """Every option the code offers, spelled as the table spells it:
    ``run(members=)``, ``ServiceConfig.workers``, ``REPRO_CC``,
    ``stencil(externals=)``, ``repro.lint --comm``."""
    options = set()
    for name in OPTION_FUNCTIONS:
        for arg in option_function(name).args.kwonlyargs:
            options.add(f"{name}({arg.arg}=)")
    functions = {name: option_function(name) for name in LIBRARY_FUNCTIONS}
    for name, function in {**functions, **_constructors()}.items():
        options.update(f"{name}({arg}=)" for arg in _defaulted(function))
    options.update(f"{LINT_CLI[0]} {flag}" for flag in _flags())
    options.update(f"{name}.{field}"
                   for name, fields in option_config_fields().items()
                   for field in fields)
    return options | _read_by_the_package()


def option_config_fields():
    """``{configuration: its field names}`` of :data:`OPTION_CONFIGS`."""
    return {
        node.name: [
            stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ]
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef) and node.name in OPTION_CONFIGS
    }


def option_rows(design):
    """``{option: (owner kind, text)}`` of the "Option census" table."""
    section = design.partition("\n### Option census\n")[2]
    section = section.partition("\n#")[0]
    rows = _OPTION_ROW.findall(section)
    table = {option: (kind, text) for option, kind, text in rows}
    assert len(table) == len(rows), "an option has two rows"
    return table


def _test_exists(test_id):
    """Whether ``path::name`` (a parametrisation ``[...]`` stripped) is a
    test function of a file of the suite."""
    path, _, name = test_id.partition("::")
    name = name.partition("[")[0]
    file = ROOT / path
    if not name or not file.is_file():
        return False
    return any(
        isinstance(node, ast.FunctionDef) and node.name == name
        for node in ast.walk(ast.parse(file.read_text(), str(file)))
    )


def option_census_problems(table, options, labels, test_exists):
    """What keeps the table from being the closed census of ``options``:
    a missing or stale row, an unknown owner kind, a setter that is no
    entry point of ``labels``, an error path naming no test, an API row
    naming no ROADMAP item."""
    problems = [f"no row: {o}" for o in sorted(options - table.keys())]
    problems += [f"no such option: {o}"
                 for o in sorted(table.keys() - options)]
    for option, (kind, text) in sorted(table.items()):
        first = _FIRST_CODE.match(text)
        if kind not in OWNER_KINDS:
            problems.append(f"{option}: unknown owner {kind!r}")
        elif kind == "entry point" and (
                not first or first.group(1) not in labels):
            problems.append(f"{option}: no entry point names it")
        elif kind == "error path" and (
                not first or not test_exists(first.group(1))):
            problems.append(f"{option}: names no test of the suite")
        elif kind == "API" and "ROADMAP item" not in text:
            problems.append(f"{option}: names no ROADMAP item")
    return problems


def _entry_point_labels():
    from tests.test_reach import _census_tool

    return {label for label, _, _ in _census_tool().ENTRY_POINTS}


def test_every_option_names_its_setter_or_owner():
    table = option_rows((ROOT / "DESIGN.md").read_text(encoding="utf-8"))
    options = code_options()
    assert len(options) >= 40  # the walk still finds the keywords
    assert option_census_problems(
        table, options, _entry_point_labels(), _test_exists
    ) == []


def test_an_option_without_a_row_or_a_setter_is_reported():
    design = (
        "# D\n\n### Option census\n\n| option | owner | what |\n"
        "|---|---|---|\n"
        "| `run(seed=)` | entry point | `example quickstart`: 1 |\n"
        "| `run(gone=)` | entry point | `example quickstart`: 2 |\n"
        "| `run(alias=)` | entry point | `a test`: 3 |\n"
        "| `REPRO_X` | error path | `tests/test_knobs.py::test_nothing` |\n"
        "| `REPRO_Y` | error path | `tests/test_knobs.py::"
        "test_every_option_names_its_setter_or_owner` |\n"
        "| `Config.api` | API | a caller one day |\n"
        "| `Config.cap` | capacity | a limit |\n"
        "\n## Next\n\n| `run(after=)` | entry point | `x` |\n"
    )
    table = option_rows(design)
    assert "run(after=)" not in table
    options = {"run(seed=)", "run(planted=)", "run(alias=)", "REPRO_X",
               "REPRO_Y", "Config.api", "Config.cap"}
    assert option_census_problems(
        table, options, {"example quickstart"}, _test_exists
    ) == [
        "no row: run(planted=)",
        "no such option: run(gone=)",
        "Config.api: names no ROADMAP item",
        "Config.cap: unknown owner 'capacity'",
        "REPRO_X: names no test of the suite",
        "run(alias=): no entry point names it",
    ]
