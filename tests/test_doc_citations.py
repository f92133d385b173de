"""What the docs cite exists.

README.md, DESIGN.md and ``docs/*.md`` point at three kinds of things:

- ROADMAP items, as "ROADMAP item 9" or "ROADMAP 9(c)". Items are
  renumbered only by retiring them to a stub, so a citation is stale
  when its number names no entry of the numbered list, or when it names
  a part, "(c)", that the item records as done;
- code, as a backticked ``path.py:name``: the file (under ``src/repro``
  or the repository root) must define ``name`` — a function or class by
  its qualified name, as the census owner rows write them, or a
  module-level name;
- switches, as ``REPRO_*``: each must be a variable the package reads
  (the set ``tests/test_knobs.py`` computes);
- calls, as a backticked ``name(kw=)`` of a function of the option
  census (``run``, ``EnsembleDriver``, ``build_core``, ``stencil``,
  ``tune_cutout``, a transformation, ...) or of a configuration
  (``PipelineOptions``, ``StorageSpec``, ...): each keyword must be a
  parameter it takes or a field it has; and as a backticked dotted
  ``obs.x()`` or ``repro.x.y()``: the name must resolve;
- flags of ``python -m repro.lint``, as ``--flag`` anywhere in its own
  doc (``docs/static_analysis.md``) and on any line naming
  ``repro.lint``: each must be a flag the CLI takes.
"""

import ast
import importlib
import pathlib
import re

from tests.test_knobs import (
    LIBRARY_FUNCTIONS,
    OPTION_FUNCTIONS,
    _constructors,
    _flags,
    _read_by_the_package,
    option_config_fields,
    option_function,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: "ROADMAP item 12(a)", "ROADMAP items 4", "ROADMAP 9(c)"
CITATION = re.compile(r"ROADMAP\s+(?:items?\s+)?(\d+)(?:\(([a-z])\))?")


def roadmap_items(text):
    """Item number → its text (whitespace collapsed), for every entry of
    the numbered list under "## Open items", retired stubs included."""
    section = text.split("\n## Open items", 1)[1].split("\n## ", 1)[0]
    # a shorter numbered list (the work order) comes first in the
    # section: the items, which follow it, overwrite its numbers
    items = {}
    for match in re.finditer(r"^(\d+)\. (.*?)(?=^\d+\. |\Z)", section,
                             re.M | re.S):
        items[int(match[1])] = " ".join(match[2].split())
    return items


def stale_citations(text, items):
    """The citations in ``text`` that name no item, or a part of one that
    the item says is done."""
    stale = []
    for match in CITATION.finditer(" ".join(text.split())):
        number, part = int(match[1]), match[2]
        body = items.get(number)
        if body is None or (part and f"({part}) done" in body):
            stale.append(match[0])
    return stale


#: "`dsl/oracle.py:run_oracle`", "`sdfg/plan.py:CompiledSDFG.bind`"
SYMBOL = re.compile(r"`([\w/.]+\.py):([\w.<>]+)`")
#: a switch named anywhere in the text
SWITCH = re.compile(r"REPRO_[A-Z0-9_]+")


def defined_names(source: str) -> set:
    """Every name ``source`` defines: functions and classes by qualified
    name (``Outer.method``, ``func.<locals>.inner``), and module-level
    assignments."""
    names = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                names.add(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                if not prefix:
                    targets = (child.targets if isinstance(child, ast.Assign)
                               else [child.target])
                    names.update(t.id for t in targets
                                 if isinstance(t, ast.Name))
            else:  # a def under an ``if`` or ``try`` keeps its prefix
                visit(child, prefix)

    visit(ast.parse(source), "")
    return names


def stale_symbols(text, read_source):
    """The ``path.py:name`` citations in ``text`` whose file does not
    define ``name``; ``read_source(path)`` is the file's source, or
    ``None`` when no such file exists."""
    stale, defined = [], {}
    for match in SYMBOL.finditer(text):
        path, name = match.groups()
        if path not in defined:
            source = read_source(path)
            defined[path] = None if source is None else defined_names(source)
        if defined[path] is None or name not in defined[path]:
            stale.append(match[0])
    return stale


def _read_source(path):
    for base in (PACKAGE, ROOT):
        if (base / path).is_file():
            return (base / path).read_text(encoding="utf-8")
    return None


def _docs():
    return [ROOT / "README.md", ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md"))]


def test_every_roadmap_citation_in_the_docs_resolves():
    items = roadmap_items((ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    assert {1, 10, 24} <= set(items)  # an open item, a stub, the last
    found = 0
    stale = []
    for path in _docs():
        text = path.read_text(encoding="utf-8")
        found += len(CITATION.findall(" ".join(text.split())))
        stale += [f"{path.relative_to(ROOT)}: {c}"
                  for c in stale_citations(text, items)]
    assert found, "no citation found: the pattern no longer matches"
    assert stale == []


def test_a_bad_citation_is_reported():
    items = roadmap_items(
        "# R\n\n## Open items\n\n1. **One** *((a) done in PR 3)*\n"
        "   - (b) open\n2. *(Retired: done in PR 4.)*\n\n## Recent\n\n"
        "3. not an item\n"
    )
    assert set(items) == {1, 2}
    text = ("ROADMAP item 1(b) and ROADMAP 2 hold; ROADMAP item 3, "
            "ROADMAP\n    item 1(a) and ROADMAP 7(c) do not")
    assert stale_citations(text, items) == [
        "ROADMAP item 3", "ROADMAP item 1(a)", "ROADMAP 7(c)",
    ]


def test_every_code_citation_in_the_docs_names_a_live_symbol():
    found = 0
    stale = []
    for path in _docs():
        text = path.read_text(encoding="utf-8")
        found += len(SYMBOL.findall(text))
        stale += [f"{path.relative_to(ROOT)}: {c}"
                  for c in stale_symbols(text, _read_source)]
    assert found >= 50, "the pattern no longer matches how code is cited"
    assert stale == []


def test_a_citation_of_a_deleted_symbol_is_reported():
    sources = {"m.py": "X = 1\n\nclass A:\n    def f(self):\n"
                       "        def g():\n            pass\n"}
    text = ("`m.py:X`, `m.py:A.f`, `m.py:A.f.<locals>.g` hold; "
            "`m.py:A.h`, `m.py:f` and `gone.py:X` do not")
    assert stale_symbols(text, sources.get) == [
        "`m.py:A.h`", "`m.py:f`", "`gone.py:X`",
    ]


def test_every_switch_the_docs_name_is_read_by_the_package():
    read = _read_by_the_package()
    named = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in _docs()
        for name in SWITCH.findall(path.read_text(encoding="utf-8"))
        if name not in read
    }
    assert named == set()


#: a backticked call: "`run(max_polls=)`", "`EnsembleDriver(..., engine=x)`",
#: "`@stencil(externals=...)`"
CALL = re.compile(r"`@?([A-Za-z_][\w.]*)\(([^`]*)\)`")
#: a keyword inside a call's arguments
KEYWORD = re.compile(r"(?<![\w.=])(\w+)=(?!=)")
#: how a doc may spell a function of the option census (the first prefix
#: a name starts with is dropped: ``repro.obs.median_time`` is
#: ``obs.median_time``)
_MODULES = ("repro.run.driver.", "repro.run.", "repro.fv3.dyncore.",
            "repro.fv3.", "repro.dsl.stencil.", "repro.dsl.storage.",
            "repro.dsl.", "repro.orchestration.program.",
            "repro.orchestration.", "repro.core.pipeline.",
            "repro.core.autotune.", "repro.core.transfer.",
            "repro.core.heuristics.", "repro.core.",
            "repro.sdfg.transformations.", "repro.sdfg.cutout.",
            "repro.sdfg.", "repro.runtime.procs.", "repro.runtime.ranks.",
            "repro.runtime.", "repro.serve.service.", "repro.serve.metrics.",
            "repro.serve.", "repro.scenarios.base.", "repro.scenarios.",
            "repro.")
#: a flag as a doc writes it: "--comm", "[--json PATH]"
FLAG = re.compile(r"(?<![\w-])--([a-z][\w-]*)")
#: a backticked dotted call of the package: "`obs.report()`"
DOTTED = re.compile(r"`((?:obs|repro)(?:\.[A-Za-z_]\w*)+)\(")


def stale_keywords(text, parameters):
    """The backticked calls in ``text`` of a function of ``parameters``
    (its name → the names it takes) that pass a keyword it does not
    take, as ``name(kw=)``."""
    stale = []
    for match in CALL.finditer(text):
        name = match[1]
        for module in _MODULES:
            if name.startswith(module):
                name = name[len(module):]
                break
        if name in parameters:
            stale += [f"`{match[1]}({kw}=)`"
                      for kw in KEYWORD.findall(match[2])
                      if kw not in parameters[name]]
    return stale


def stale_dotted_calls(text, resolves):
    """The backticked dotted calls in ``text`` whose name does not
    resolve (``resolves(name)`` is false)."""
    return [f"`{m[1]}()`" for m in DOTTED.finditer(text)
            if not resolves(m[1])]


def stale_flags(text, flags, everywhere):
    """The ``--flags`` in ``text`` that are not in ``flags``: every one
    when ``everywhere``, else those on a line naming ``repro.lint``."""
    lines = [line for line in text.splitlines()
             if everywhere or "repro.lint" in line]
    return [f"--{flag}" for line in lines for flag in FLAG.findall(line)
            if f"--{flag}" not in flags]


def _names_taken(function):
    args = function.args
    return {a.arg for a in args.posonlyargs + args.args
            + args.kwonlyargs} - {"self"}


def _parameters():
    """Every function of the census and every configuration, by the name
    a doc calls it → the keywords it takes."""
    out = {name: _names_taken(option_function(name))
           for name in {**OPTION_FUNCTIONS, **LIBRARY_FUNCTIONS}}
    out.update((name, _names_taken(init))
               for name, init in _constructors().items())
    out.update((name, set(fields))
               for name, fields in option_config_fields().items())
    return out


def _resolves(name):
    """Whether ``repro.x.y`` (``obs.x`` is ``repro.obs.x``) names a module
    of the package or an attribute reachable from one."""
    parts = ("repro." + name if name.startswith("obs.") else name).split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_call_the_docs_cite_takes_its_keywords_and_resolves():
    parameters = _parameters()
    assert "max_polls" not in parameters["run"]
    assert "externals" in parameters["stencil"]
    assert "stride_padding" in parameters["StorageSpec"]
    found = 0
    stale = []
    for path in _docs():
        text = path.read_text(encoding="utf-8")
        found += len(DOTTED.findall(text))
        where = path.relative_to(ROOT)
        stale += [f"{where}: {c}" for c in stale_keywords(text, parameters)]
        stale += [f"{where}: {c}" for c in stale_dotted_calls(text, _resolves)]
    assert found >= 5, "the pattern no longer matches how calls are cited"
    assert stale == []


def test_a_stale_keyword_or_call_is_reported():
    parameters = {"run": {"scenario", "steps", "members"},
                  "EnsembleDriver": {"members", "engine"}}
    text = ("`run(steps=2, members=3)`, `repro.run.run(max_polls=)`, "
            "`EnsembleDriver(..., engine=core)`, "
            "`repro.run.EnsembleDriver(comm_latency=0.1)`, "
            "`pipe.run(check=True)` and `build(max_polls=)`")
    assert stale_keywords(text, parameters) == [
        "`repro.run.run(max_polls=)`",
        "`repro.run.EnsembleDriver(comm_latency=)`",
    ]
    text = ("`obs.report()`, `repro.run.run(\"x\")`, `repro.obs.enable()`, "
            "`obs.set_observed_machine()` and `repro.nothing.here()`")
    assert stale_dotted_calls(text, _resolves) == [
        "`obs.set_observed_machine()`", "`repro.nothing.here()`",
    ]


def test_every_lint_flag_the_docs_name_is_taken():
    flags = set(_flags())
    assert "--comm" in flags
    stale = []
    for path in _docs():
        own = path.name == "static_analysis.md"
        stale += [f"{path.relative_to(ROOT)}: {flag}" for flag in
                  stale_flags(path.read_text(encoding="utf-8"), flags, own)]
    assert stale == []


def test_a_stale_flag_or_keyword_of_the_second_ring_is_reported():
    flags = {"--comm", "--json"}
    text = ("python -m repro.lint x --comm --fail-on warning\n"
            "pytest --deep\n[--json PATH] [--strict]\n")
    assert stale_flags(text, flags, everywhere=False) == ["--fail-on"]
    assert stale_flags(text, flags, everywhere=True) == [
        "--fail-on", "--deep", "--strict",
    ]
    parameters = {"stencil": {"func", "externals"},
                  "PipelineOptions": {"machine"},
                  "obs.median_time": {"fn", "repetitions"}}
    text = ("`@stencil(backend=...)`, `repro.dsl.stencil(externals=x)`, "
            "`PipelineOptions(lint_audit=False)` and "
            "`repro.obs.median_time(f, warmup=2)`")
    assert stale_keywords(text, parameters) == [
        "`stencil(backend=)`", "`PipelineOptions(lint_audit=)`",
        "`repro.obs.median_time(warmup=)`",
    ]
