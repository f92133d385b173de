"""Random well-typed stencils: oracle == numpy == dataflow == compiled.

The strategy writes stencil *source* — offsets, intervals, the three
iteration orders, regions, a 2-D target, nested ``if``/``elif``/``else``
whose bodies assign the names their tests read, locals read at
horizontal offsets (so the compiled lowering recomputes them), inputs
holding NaN, ±0 and ±inf — parses it with the ordinary frontend, and holds
every backend (the compiled one under both printers) to the definition
interpreter of :mod:`repro.dsl.oracle`.

Tier-1 runs a small derandomised budget; ``FUZZ_EXAMPLES=N`` (the
``compiled-smoke`` CI job) runs ``N`` fresh ones. A counterexample found
this way is committed below as a named regression stencil.
"""

import linecache
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.dsl.stencil import StencilObject
from repro.runtime import jit
from repro.sdfg.codegen_compiled import compile_sdfg_compiled
from tests.dsl.test_oracle import oracle_of, same
from tests.runtime.test_jit import _forget_loaded
from tests.sdfg.test_codegen_compiled import _build_sdfg

EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES") or 0)
NI, NJ, NK = 5, 4, 4

HEADER = (
    "from repro.dsl import (BACKWARD, FORWARD, PARALLEL, Field, FieldIJ,\n"
    "    computation, horizontal, interval, region, i_start, i_end,\n"
    "    j_start, j_end)\n\n"
    "def fuzzed(a: Field, b: Field, c2: FieldIJ, o1: Field, o2: Field,\n"
    "           p2: FieldIJ, w: float):\n"
)
INPUTS, OUTPUTS = ("a", "b"), ("o1", "o2")
INTERVALS = (
    [("...", False)],
    [("0, 1", True), ("1, None", False)],
    [("0, -1", False), ("-1, None", True)],
)
REGIONS = ("i_start, :", ":, j_end", "i_start + 1 : i_end, :",
           ":, j_start : j_start + 2")


class _Writer:
    """Draws one stencil body, keeping track of what may be read."""

    def __init__(self, draw):
        self.draw = draw
        self.lines = []
        self.locals = ()    # the current computation's local names
        self.known = set()  # locals assigned so far (anywhere above)
        #: the statement being written: its target (not read at a
        #: neighbour: no scalar loop can do that in place) and whether it
        #: reads inputs only (a local the compiled lowering may recompute)
        self.target, self.pure = None, False

    def pick(self, options):
        return self.draw(st.sampled_from(sorted(options)))

    def chance(self, percent: int) -> bool:
        return self.draw(st.integers(0, 99)) < percent

    def offset(self, vertical: bool, often: bool = False) -> str:
        near = st.sampled_from((0, -1, 1) if often else (0, 0, 0, -1, 1))
        di, dj = self.draw(near), self.draw(near)
        dk = self.draw(near) if vertical else 0
        return "" if (di, dj, dk) == (0, 0, 0) else f"[{di}, {dj}, {dk}]"

    def field(self) -> str:
        """A field read: an input, a local (half of them at a horizontal
        neighbour), or an output."""
        written = (set(OUTPUTS) | self.known) - {self.target}
        if self.pure or not written or self.chance(45):
            return self.pick(INPUTS) + self.offset(vertical=True)
        name = self.pick(written)
        if name in self.known:
            return name + self.offset(vertical=self.chance(25), often=True)
        return name + self.offset(vertical=self.chance(25))

    def expr(self, depth: int = 0) -> str:
        """An expression that reads at least one field."""
        left = self.field()
        if depth >= 2 or self.chance(30):
            return left
        kind = self.draw(st.integers(0, 9))
        right = self.operand(depth + 1)
        if kind <= 4:
            return f"({left} {'+-*+-'[kind]} {right})"
        if kind == 5:
            return f"({left} / {right})"
        if kind == 6:
            return f"{self.pick(('min', 'max'))}({left}, {right})"
        if kind == 7:
            return f"{self.pick(('abs', 'sign', 'floor'))}({left}) * {right}"
        if kind == 8:
            return f"sqrt(abs({left})) + {right}"
        return f"({left} if {self.test(depth + 1)} else {right})"

    def operand(self, depth: int) -> str:
        kind = self.draw(st.integers(0, 5))
        if kind == 0:
            return self.pick(("0.0", "1.0", "-2.5", "0.5"))
        if kind == 1:
            return "w"
        if kind == 2:
            return "c2"
        return self.expr(depth)

    def test(self, depth: int = 1) -> str:
        cmp = self.pick(("<", "<=", ">", ">=", "==", "!="))
        one = f"{self.expr(depth)} {cmp} {self.operand(depth)}"
        kind = self.draw(st.integers(0, 5))
        if kind == 0:
            return f"not ({one})"
        if kind == 1:
            return f"({one}) {self.pick(('and', 'or'))} " \
                   f"({self.field()} > {self.operand(2)})"
        return one

    def assign(self, indent: int, prefer=()) -> None:
        name = self.pick(prefer) if prefer and self.chance(70) \
            else self.pick(set(OUTPUTS) | set(self.locals))
        # (now and then it does, and the kernel falls back to ufuncs)
        self.target = name if self.chance(95) else None
        self.pure = name in self.locals and self.chance(70)
        value = self.expr()
        self.target, self.pure = None, False
        self.known.update({name} & set(self.locals))
        self.lines.append("    " * indent + f"{name} = {value}")

    def block(self, indent: int, count: int, depth: int, flat: bool,
              prefer=()) -> None:
        for _ in range(count):
            kind = self.draw(st.integers(0, 9))
            if kind <= 1 and depth < 2:
                self.branch(indent, depth, flat)
            elif kind == 2 and not flat:
                self.lines.append(
                    "    " * indent
                    + f"with horizontal(region[{self.pick(REGIONS)}]):"
                )
                self.block(indent + 1, self.draw(st.integers(1, 2)),
                           depth, True, prefer)
            else:
                self.assign(indent, prefer)

    def branch(self, indent: int, depth: int, flat: bool) -> None:
        """``if``/``elif``/``else`` whose bodies like to assign what the
        test reads."""
        pad = "    " * indent
        for keyword in ("if", "elif", "else"):
            if keyword == "elif" and not self.chance(40):
                continue
            if keyword == "else" and not self.chance(60):
                continue
            test = "" if keyword == "else" else " " + self.test()
            self.lines.append(f"{pad}{keyword}{test}:")
            read = {n for n in (*OUTPUTS, *self.locals) if n in test}
            self.block(indent + 1, self.draw(st.integers(1, 3)), depth + 1,
                       flat, tuple(sorted(read)))


@st.composite
def stencil_sources(draw) -> str:
    w = _Writer(draw)
    for comp in range(draw(st.integers(1, 2))):
        order = w.pick(("PARALLEL", "PARALLEL", "FORWARD", "BACKWARD"))
        w.lines.append(f"    with computation({order}):")
        # names of its own: a temporary one computation uses is local to
        # its kernel, and only those can become registers
        w.locals = tuple(f"t{comp}{n}" for n in "abc")
        for span, single in draw(st.sampled_from(INTERVALS)):
            w.lines.append(f"        with interval({span}):")
            w.block(3, draw(st.integers(1, 5)), 0, False)
            if single and w.chance(50):
                w.lines.append(f"            p2 = {w.expr()}")
    return HEADER + "\n".join(w.lines) + "\n"


def build(source: str) -> StencilObject:
    """The stencil of ``source``, which the frontend reads back through
    ``inspect`` (hence the line cache entry)."""
    name = f"<fuzzed-{abs(hash(source))}>"
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    namespace = {}
    exec(compile(source, name, "exec"), namespace)  # noqa: S102 - own text
    return StencilObject(namespace["fuzzed"])


def inputs(stencil_obj, seed: int):
    rng = np.random.default_rng(seed)
    # offsets chain through written fields: the halo is the stencil's own
    pad = stencil_obj.extents.max_halo() + 1
    shape = (NI + 2 * pad, NJ + 2 * pad, NK + 2 * pad)
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    fields = {}
    for p in stencil_obj.definition.field_params:
        arr = rng.normal(size=shape[:len(p.field_type.axes)])
        odd = rng.random(arr.shape) < 0.03
        arr[odd] = rng.choice(special, size=int(odd.sum()))
        fields[p.name] = arr
    return fields, {"w": float(rng.normal())}, (pad, pad, pad)


def check(source: str, seed: int = 0) -> None:
    stencil_obj = build(source)
    fields, scalars, origin = inputs(stencil_obj, seed)
    domain = (NI, NJ, NK)
    want = oracle_of(stencil_obj, fields, scalars, origin, domain)

    def agree(got, who):
        for name in fields:
            assert same(got[name], want[name]), (
                f"{who}: {name!r} is not what the definition says\n{source}"
            )

    with np.errstate(all="ignore"):
        for backend in ("numpy", "dataflow"):
            got = {n: a.copy() for n, a in fields.items()}
            stencil_obj(**got, **scalars, origin=origin, domain=domain,
                        backend=backend)
            agree(got, backend)
        sdfg = _build_sdfg(stencil_obj, fields, origin, domain)
        engines = ["pyloops"] + (["cgen"] if jit._find_cc() else [])
        with pytest.MonkeyPatch.context() as patch:
            for engine in engines:
                patch.setenv("REPRO_JIT", engine)
                jit.reset(engine=True)
                # the same lowering, printed in this engine's language
                plan = compile_sdfg_compiled(sdfg)
                got = {n: a.copy() for n, a in fields.items()}
                plan(arrays=got, scalars=scalars)
                agree(got, f"compiled/{engine}")
        jit.reset(engine=True)
        _forget_loaded()


@settings(
    max_examples=EXAMPLES or 25, derandomize=not EXAMPLES, deadline=None,
    suppress_health_check=list(HealthCheck),
    # every attempt compiles C: shrink only when hunting (the failing
    # source is in the assertion message either way)
    phases=list(Phase) if EXAMPLES else [Phase.explicit, Phase.generate],
)
@given(stencil_sources(), st.integers(0, 3))
def test_every_backend_is_what_the_definition_says(source, seed):
    check(source, seed)


# ---------------------------------------------------------------------------
# named regressions
# ---------------------------------------------------------------------------

#: what the register rewrites must not do, one stencil each (hand-made
#: while building them: the random search above found no counterexample
#: in 600 stencils, and mutating the rewrites showed which mistakes it
#: is unlikely to generate)
REGRESSIONS = {
    # a solver's local read at the previous level is not one register
    "local_read_at_another_level": """
    with computation(FORWARD):
        with interval(...):
            t0a = a * 2.0
            o1 = t0a[0, 0, -1] + b
""",
    # the limiter shape: locals recomputed at a neighbour, assigned by
    # the branches of the tests that read them
    "limiter_read_at_a_neighbour": """
    with computation(PARALLEL):
        with interval(...):
            t0a = a - a[-1, 0, 0]
            t0b = a[1, 0, 0] - a
            if t0a * t0b >= 0.0:
                t0a = 0.0
                t0b = 0.0
            elif t0a > t0b:
                t0a = -2.0 * t0b
            o1 = t0a[1, 0, 0] + t0b[0, -1, 0]
""",
    # a local some cluster reads only after an array it depends on changed
    # is not recomputed: o1 is written between its definition and its use
    "local_of_a_written_field_is_not_recomputed": """
    with computation(PARALLEL):
        with interval(...):
            t0a = o1 + a
            o1 = b
            o2 = t0a[1, 0, 0] + o1[-1, 0, 0]
""",
    # a local defined under a region is zero outside it
    "regioned_local": """
    with computation(PARALLEL):
        with interval(...):
            with horizontal(region[i_start, :]):
                t0a = a
            o1 = t0a + b
            o2 = t0a[-1, 0, 0]
""",
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_named_regression(name):
    check(HEADER + REGRESSIONS[name].lstrip("\n"), seed=1)
