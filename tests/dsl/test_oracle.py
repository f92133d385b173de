"""The backends against the semantics oracle (:mod:`repro.dsl.oracle`).

Both backends run one lowering: ``numpy`` its NumPy emission, ``compiled``
its C print. The ``dataflow`` leg is no backend: it is that NumPy emission
compiled straight from the lowered SDFG, outside the backend's program
cache. This file holds each of them to an interpreter of the definition
function itself, which knows nothing of masks, fusion clusters,
registers or selects. The compiled backend is held to it with its
register rewrites switched on one after the other (the lowering has no
such switch: the stages take the candidate sets away by patching the
two methods that compute them).
"""

import contextlib
import dataclasses
import types

import numpy as np
import pytest

from repro.dsl import Field, PARALLEL, computation, interval, stencil
from repro.dsl.extents import compute_extents
from repro.dsl.ir import FieldAccess, map_expr
from repro.dsl.oracle import run_oracle
from repro.fv3.stencils.xppm import xppm_flux
from repro.runtime import jit
from repro.sdfg.codegen import compile_sdfg
from repro.sdfg.codegen_compiled import _Lowerer
from tests.fv3.test_backend_bitexact import NI, NJ, NK, _discover, _synthesize
from tests.runtime.test_jit import _forget_loaded
from tests.sdfg.emission import build_sdfg as _build_sdfg, run_emission


def same(got, want) -> bool:
    """Equal values, NaN where NaN, and the zeros of one sign."""
    finite = ~np.isnan(want)
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got[finite]), np.signbit(want[finite])
    )


def oracle_of(stencil_obj, fields, scalars, origin, domain):
    want = {n: a.copy() for n, a in fields.items()}
    run_oracle(stencil_obj, want, scalars, origin=origin, domain=domain)
    return want


def assert_backend_matches(stencil_obj, backend, fields, scalars, origin,
                           domain, want, where=""):
    """``backend`` is a DSL backend, or ``"dataflow"``: the NumPy
    emission of the stencil's lowered SDFG, compiled directly."""
    got = {n: a.copy() for n, a in fields.items()}
    if backend == "dataflow":
        run_emission(stencil_obj, got, scalars, origin, domain)
    else:
        stencil_obj(**got, **scalars, origin=origin, domain=domain,
                    backend=backend)
    for name in fields:
        assert same(got[name], want[name]), (
            f"{stencil_obj.name}: {name!r} on {backend}{where} is not what "
            "the definition says"
        )


#: the rewrites of the compiled lowering, cumulatively: locals as arrays
#: (step 0 and the selects, which have no other form), + scalar
#: replacement, + recomputation at the reader's offset
STAGES = ("arrays", "pinned", "floating")


@contextlib.contextmanager
def compiled_stage(stage, store, isa=True):
    """A fresh compiled backend printing into ``store``, its lowering
    stopped at ``stage``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_JIT_DIR", str(store))
        jit.reset(engine=True)
        _forget_loaded()
        if stage == "arrays":
            patch.setattr(_Lowerer, "_pinned", lambda *args: set())
        if stage in ("arrays", "pinned"):
            patch.setattr(_Lowerer, "_floating", lambda *args: set())
        if not isa:
            patch.setitem(jit._PROBED, jit._ISA_FLAG, False)
        yield
    jit.reset(engine=True)
    _forget_loaded()


def assert_compiled_matches(stencil_obj, fields, scalars, origin, domain,
                            want, where):
    plan = compile_sdfg(
        _build_sdfg(stencil_obj, fields, origin, domain), "compiled"
    )
    got = {n: a.copy() for n, a in fields.items()}
    plan(arrays=got, scalars=scalars)
    for name in fields:
        assert same(got[name], want[name]), (
            f"{stencil_obj.name}: {name!r} compiled ({where}) is not what "
            "the definition says"
        )
    return plan


@pytest.mark.parametrize("stencil_obj", _discover())
def test_array_backends_equal_the_oracle(stencil_obj):
    fields, scalars, origin = _synthesize(stencil_obj)
    domain = (NI, NJ, NK)
    want = oracle_of(stencil_obj, fields, scalars, origin, domain)
    for backend in ("numpy", "dataflow"):
        assert_backend_matches(stencil_obj, backend, fields, scalars, origin,
                               domain, want)


@pytest.mark.skipif(jit._find_cc() is None, reason="no C compiler")
@pytest.mark.parametrize("stencil_obj", _discover())
def test_compiled_equals_the_oracle_after_each_rewrite(stencil_obj, tmp_path):
    fields, scalars, origin = _synthesize(stencil_obj)
    domain = (NI, NJ, NK)
    want = oracle_of(stencil_obj, fields, scalars, origin, domain)
    for stage in STAGES:
        with compiled_stage(stage, tmp_path):
            assert_compiled_matches(stencil_obj, fields, scalars, origin,
                                    domain, want, f"cgen, {stage}")


@pytest.mark.skipif(jit._find_cc() is None, reason="no C compiler")
@pytest.mark.parametrize("isa", [False, True], ids=["base-flags", "host-isa"])
def test_ppm_in_c_equals_the_oracle_after_each_rewrite(tmp_path, isa):
    """The kernel every rewrite was made for, through the C printer, with
    and without the host's instruction set."""
    fields, scalars, origin = _synthesize(xppm_flux)
    domain = (NI, NJ, NK)
    want = oracle_of(xppm_flux, fields, scalars, origin, domain)
    locals_left = []
    for stage in STAGES:
        with compiled_stage(stage, tmp_path, isa):
            plan = assert_compiled_matches(
                xppm_flux, fields, scalars, origin, domain, want,
                f"cgen, {stage}, isa={isa}",
            )
            assert plan.fallback_kernels == []
            locals_left.append(len(plan.plan_nbytes))
    # ten locals as arrays; then only the four another cluster reads
    # (al, br, b0 at a neighbour, bl by the flux statements); then none
    assert locals_left == [10, 4, 0]


# ---------------------------------------------------------------------------
# what `if` means
# ---------------------------------------------------------------------------


@stencil
def _flip(x: Field, y: Field):
    with computation(PARALLEL), interval(...):
        if x > 0.0:
            x = -x
            y = 1.0
        else:
            y = 2.0


def _backends():
    return ["numpy", "dataflow"] + (["compiled"] if jit.available() else [])


@pytest.mark.parametrize("backend", _backends())
def test_a_body_that_assigns_what_its_test_reads_keeps_its_branch(backend):
    """``if x > 0: x = -x; y = 1 else: y = 2`` used to give ``y == 2``
    everywhere: every masked assignment re-evaluated ``x > 0``."""
    x = np.array([1.0, -1.0, 2.0, -3.0, 0.0, np.nan]).reshape(6, 1, 1)
    fields = {"x": x, "y": np.zeros_like(x)}
    want = oracle_of(_flip, fields, {}, (0, 0, 0), (6, 1, 1))
    assert want["y"].ravel().tolist() == [1.0, 2.0, 1.0, 2.0, 2.0, 2.0]
    assert want["x"].ravel()[:5].tolist() == [-1.0, -1.0, -2.0, -3.0, 0.0]
    assert_backend_matches(_flip, backend, fields, {}, (0, 0, 0), (6, 1, 1),
                           want)


@stencil
def _flatten(bl: Field, br: Field):
    """The first branch of xppm's monotonicity constraint, on its own."""
    with computation(PARALLEL), interval(...):
        if bl * br >= 0.0:
            bl = 0.0
            br = 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0 * inf
@pytest.mark.parametrize("backend", _backends())
def test_the_ppm_limiter_flattens_an_infinite_edge_too(backend):
    """Where the two meanings of ``if`` part in the shipped limiter:
    ``bl * br >= 0`` with ``br = ±inf``. Once ``bl`` is 0 the re-evaluated
    test is ``0 * inf >= 0``, NaN and false, and ``br`` kept its
    infinity."""
    inf = np.inf
    fields = {
        "bl": np.array([1.0, -2.0, 1.0, 0.0]).reshape(4, 1, 1),
        "br": np.array([inf, -inf, -inf, inf]).reshape(4, 1, 1),
    }
    want = oracle_of(_flatten, fields, {}, (0, 0, 0), (4, 1, 1))
    assert want["bl"].ravel().tolist() == [0.0, 0.0, 1.0, 0.0]
    assert want["br"].ravel().tolist() == [0.0, 0.0, -inf, inf]
    assert_backend_matches(_flatten, backend, fields, {}, (0, 0, 0),
                           (4, 1, 1), want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("backend", _backends())
def test_xppm_on_an_infinite_cell_is_still_what_the_definition_says(backend):
    """``xppm_flux`` itself cannot get there through ``q``: ``al`` is
    clamped between the neighbouring cell means, so an infinite ``br``
    faces a ``bl`` of the other sign (or NaN) and the first branch is not
    taken. What an infinite cell does do is put inf, NaN and both zeros
    through every select of the fused kernel."""
    fields, scalars, origin = _synthesize(xppm_flux)
    fields["q"][origin[0] + 4, origin[1] + 3, origin[2] + 2] = np.inf
    fields["q"][origin[0] + 2, origin[1] + 5, origin[2] + 1] = -np.inf
    domain = (NI, NJ, NK)
    want = oracle_of(xppm_flux, fields, scalars, origin, domain)
    assert np.isnan(want["flux"]).any() and np.isinf(want["flux"]).any()
    assert_backend_matches(xppm_flux, backend, fields, scalars, origin,
                           domain, want)


# ---------------------------------------------------------------------------
# what a tuple assignment means
# ---------------------------------------------------------------------------


@stencil
def _swap(a: Field, b: Field, c: Field):
    with computation(PARALLEL), interval(...):
        a, b = b, a


@stencil
def _rotate(a: Field, b: Field, c: Field):
    with computation(PARALLEL), interval(...):
        a, b, c = b, c, a


@pytest.mark.parametrize("backend", _backends())
@pytest.mark.parametrize("stencil_obj, meaning", [
    (_swap, _swap), (_rotate, _rotate),
], ids=["swap", "rotate"])
def test_a_tuple_assignment_reads_every_value_before_it_writes(
    stencil_obj, meaning, backend
):
    """``a, b = b, a`` used to lower as ``a = b; b = a``: both ended as
    ``b``."""
    shape = (4, 3, 2)
    fields = {name: np.full(shape, value)
              for name, value in (("a", 1.0), ("b", 2.0), ("c", 3.0))}
    fields["a"][1, 2, 1] = np.nan
    want = oracle_of(meaning, fields, {}, (0, 0, 0), shape)
    rotated = meaning is _rotate
    assert want["a"][0, 0, 0] == 2.0
    assert want["b"][0, 0, 0] == (3.0 if rotated else 1.0)
    assert np.isnan(want["c" if rotated else "b"][1, 2, 1])
    assert_backend_matches(stencil_obj, backend, fields, {}, (0, 0, 0), shape,
                           want)


# ---------------------------------------------------------------------------
# the shipped stencils did not move
# ---------------------------------------------------------------------------


def _with_tests_reevaluated(definition):
    """``definition`` as the frontend used to lower it: every mask the
    expression of its test, re-evaluated by each masked assignment."""
    held = {}

    def strip_test(mask):
        # (held != 0.0) → the held expression itself
        def repl(node):
            if (getattr(node, "op", None) == "!="
                    and isinstance(node.left, FieldAccess)
                    and node.left.name in held):
                return held[node.left.name]
            return node

        return map_expr(mask, repl)

    old = dataclasses.replace(
        definition,
        temporaries={n: t for n, t in definition.temporaries.items()
                     if not n.startswith("__if")},
        computations=[],
    )
    for comp in definition.computations:
        blocks = []
        for block in comp.intervals:
            body = []
            for stmt in block.body:
                if stmt.target.name.startswith("__if"):
                    held[stmt.target.name] = stmt.value
                    continue
                body.append(dataclasses.replace(
                    stmt, mask=None if stmt.mask is None
                    else strip_test(stmt.mask),
                ))
            blocks.append(dataclasses.replace(block, body=body))
        old.computations.append(dataclasses.replace(comp, intervals=blocks))
    return old


@pytest.mark.parametrize("stencil_obj", _discover())
def test_shipped_stencils_do_not_move_for_finite_data(stencil_obj):
    """Evaluating a test once changes a stencil whose body assigns what
    the test reads. The PPM limiters do — and give the same answer either
    way as long as the data is finite; asserted here on every shipped
    stencil, not assumed."""
    fields, scalars, origin = _synthesize(stencil_obj)
    domain = (NI, NJ, NK)
    new = {n: a.copy() for n, a in fields.items()}
    old = {n: a.copy() for n, a in fields.items()}
    stencil_obj(**new, **scalars, origin=origin, domain=domain,
                backend="numpy")
    # the old lowering of the same stencil, in its NumPy emission
    definition = _with_tests_reevaluated(stencil_obj.definition)
    relowered = types.SimpleNamespace(
        name=stencil_obj.name, definition=definition,
        extents=compute_extents(definition),
    )
    compile_sdfg(_build_sdfg(relowered, old, origin, domain))(
        arrays=old, scalars=scalars
    )
    for name in fields:
        np.testing.assert_array_equal(new[name], old[name])
