"""Unit tests for the compiled (JITted loop nest) emission target.

Cross-checks the scalar lowering against the NumPy emission, exercises
the eligibility rules and their per-kernel fallback, the shape of the
loop-nest tree (k-blocking legality, statement fusion, solver loop
orders), that the C print of one tree agrees with the definition
(:mod:`repro.dsl.oracle`), and the plan's argument contract. Runs under
the ``cgen`` engine, and is skipped where no C compiler exists.
"""

import numpy as np
import pytest

from repro.dsl import (
    BACKWARD,
    FORWARD,
    PARALLEL,
    Field,
    computation,
    interval,
    stencil,
)
from repro.dsl.oracle import run_oracle
from repro.runtime import jit
from repro.sdfg import loopnest
from repro.sdfg.codegen import compile_sdfg
from repro.sdfg.codegen_compiled import IneligibleKernel, lower_kernel
from repro.sdfg.loopnest import (
    Clamp, Let, Lit, Loop, Op, Ref, Reg, Store, Strip, print_c,
)
from repro.sdfg.nodes import Kernel
from repro.sdfg.plan import PlanBindError
from tests.fv3.test_backend_bitexact import NI, NJ, NK, _discover, _synthesize
from tests.sdfg.emission import build_sdfg as _build_sdfg
from tests.runtime.test_jit import _forget_loaded


@pytest.fixture(autouse=True)
def _cgen_engine():
    if jit._find_cc() is None:
        pytest.skip("no C compiler")
    jit.reset(engine=True)
    yield
    jit.reset(engine=True)


def _run_both(stencil_obj, arrays, scalars=None, origin=(0, 0, 0),
              domain=None):
    scalars = scalars or {}
    domain = domain or next(iter(arrays.values())).shape
    sdfg = _build_sdfg(stencil_obj, arrays, origin, domain)
    ref = {n: a.copy() for n, a in arrays.items()}
    got = {n: a.copy() for n, a in arrays.items()}
    compile_sdfg(sdfg)(arrays=ref, scalars=scalars)
    plan = compile_sdfg(sdfg, "compiled")
    plan(arrays=got, scalars=scalars)
    return ref, got, plan


def _rand(shape, seed=0):
    return np.random.default_rng(seed).random(shape)


def _first_kernel(sdfg) -> Kernel:
    for state in sdfg.states:
        for node in state.nodes:
            if isinstance(node, Kernel):
                return node
    raise AssertionError("no kernel")


def _tree(stencil_obj, arrays, origin=(0, 0, 0), domain=None):
    """The loop-nest tree of a stencil's (single) kernel."""
    sdfg = _build_sdfg(stencil_obj, arrays, origin, domain)
    return lower_kernel(_first_kernel(sdfg), sdfg).tree


def _nodes(nodes, kind):
    """Every node of type ``kind`` under ``nodes``, in program order."""
    found = []
    for node in nodes:
        if isinstance(node, kind):
            found.append(node)
        found.extend(_nodes(getattr(node, "body", ()), kind))
    return found


def loops(nodes, var=None):
    return [lp for lp in _nodes(nodes, Loop) if var in (None, lp.var)]


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@stencil
def _lap(a: Field, out: Field, w: float):
    with computation(PARALLEL), interval(...):
        out = w * (a[-1, 0, 0] + a[1, 0, 0] + a[0, -1, 0] + a[0, 1, 0]
                   - 4.0 * a)


def test_parallel_kernel_matches_numpy_emission():
    arrays = {"a": _rand((8, 8, 6)), "out": np.zeros((8, 8, 6))}
    ref, got, plan = _run_both(
        _lap, arrays, scalars={"w": 0.25}, origin=(1, 1, 0),
        domain=(6, 6, 6),
    )
    assert plan.compiled_kernels and not plan.fallback_kernels
    np.testing.assert_array_equal(got["out"], ref["out"])


@stencil
def _cumsum(a: Field, out: Field):
    with computation(FORWARD):
        with interval(0, 1):
            out = a
        with interval(1, None):
            out = out[0, 0, -1] + a


def test_forward_recurrence_matches_numpy_emission():
    arrays = {"a": _rand((5, 4, 7)), "out": np.zeros((5, 4, 7))}
    ref, got, plan = _run_both(_cumsum, arrays)
    assert plan.compiled_kernels
    np.testing.assert_array_equal(got["out"], ref["out"])


@stencil
def _bsweep(a: Field, out: Field):
    with computation(BACKWARD):
        with interval(-1, None):
            out = a
        with interval(0, -1):
            out = out[0, 0, 1] * 0.5 + a


def test_backward_recurrence_matches_numpy_emission():
    arrays = {"a": _rand((5, 4, 7)), "out": np.zeros((5, 4, 7))}
    ref, got, _ = _run_both(_bsweep, arrays)
    np.testing.assert_array_equal(got["out"], ref["out"])


def test_cgen_engine_matches_numpy_emission(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    jit.reset(engine=True)
    arrays = {"a": _rand((8, 8, 6)), "out": np.zeros((8, 8, 6))}
    ref, got, plan = _run_both(
        _lap, arrays, scalars={"w": 0.25}, origin=(1, 1, 0),
        domain=(6, 6, 6),
    )
    assert plan.compiled_kernels and len(plan.kernel_functions) == 1
    np.testing.assert_array_equal(got["out"], ref["out"])


@pytest.mark.parametrize("engine", ["cgen"])  # the id names the engine
def test_two_programs_share_one_kernel(engine, monkeypatch, tmp_path):
    """The kernel, not the program, is what the JIT store identifies: a
    stencil at one domain is built once and is one function object in
    every plan that contains it; another domain is another kernel (the
    extents are literals of the text)."""
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    jit.reset(engine=True)
    _forget_loaded()  # as a fresh process: earlier tests built _lap
    arrays = {"a": _rand((8, 8, 6)), "out": np.zeros((8, 8, 6))}
    results = [
        _run_both(_lap, arrays, scalars={"w": 0.25}, origin=(1, 1, 0),
                  domain=domain)
        for domain in ((6, 6, 6), (6, 6, 6), (5, 6, 6))
    ]
    for ref, got, _ in results:
        np.testing.assert_array_equal(got["out"], ref["out"])
    (fa,), (fb,), (fc,) = (plan.kernel_functions for _, _, plan in results)
    assert fa is fb and fc is not fa
    stats = jit.stats()
    assert (stats["kernels_requested"], stats["kernels_built"],
            stats["kernels_reused"]) == (3, 2, 1)
    assert stats["compiles"] == 2
    assert len(list(tmp_path.glob("repro_k_*.so"))) == 2


def test_kernel_text_does_not_name_the_containers():
    """One stencil applied to differently named containers (a loop
    unrolled over a list of fields) is one kernel: array parameters are
    positional in the printed text, numbered in the stencil's order of
    use — not in the order of the containers' names, which the third
    pair reverses."""
    from repro.sdfg import SDFG
    from repro.sdfg.nodes import StencilComputation

    pairs = (("pt", "pt_out"), ("u", "u_out"), ("z_in", "a_out"))
    sdfg = SDFG("three_fields")
    for name in sum(pairs, ()):
        sdfg.add_array(name, (8, 8, 6))
    sdfg.scalars["w"] = 0.25
    state = sdfg.add_state("s0")
    for src, dst in pairs:
        state.add(StencilComputation(
            _lap.definition, _lap.extents, mapping={"a": src, "out": dst},
            domain=(6, 6, 6), origin=(1, 1, 0), scalar_mapping={"w": "w"},
        ))
    sdfg.expand_library_nodes()
    units = [lower_kernel(k, sdfg) for k in sdfg.all_kernels()]
    assert len({print_c(unit.tree) for unit in units}) == 1
    assert [[a.runtime for a in unit.tree.arrays] for unit in units] \
        == [list(pair) for pair in pairs]
    arrays = {n: _rand((8, 8, 6), seed=i) for i, n in enumerate(sdfg.arrays)}
    ref = {n: a.copy() for n, a in arrays.items()}
    compile_sdfg(sdfg)(arrays=ref, scalars={"w": 0.25})
    plan = compile_sdfg(sdfg, "compiled")
    plan(arrays=arrays, scalars={"w": 0.25})
    assert len(set(map(id, plan.kernel_functions))) == 1  # one JIT key
    for name in arrays:
        np.testing.assert_array_equal(arrays[name], ref[name])


# ---------------------------------------------------------------------------
# eligibility + fallback
# ---------------------------------------------------------------------------


@stencil
def _logged(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = log(a)  # noqa: F821 - DSL builtin


def test_transcendental_kernel_falls_back_within_the_plan():
    arrays = {"a": 1.0 + _rand((4, 4, 3)), "out": np.zeros((4, 4, 3))}
    ref, got, plan = _run_both(_logged, arrays)
    assert plan.compiled_kernels == []
    assert plan.fallback_kernels
    assert "bit-exact scalar form" in plan.fallback_kernels[0][1]
    np.testing.assert_array_equal(got["out"], ref["out"])


def test_parallel_self_read_at_offset_is_ineligible():
    @stencil
    def shift(a: Field):
        with computation(PARALLEL), interval(...):
            a = a[1, 0, 0]

    arrays = {"a": _rand((5, 4, 3))}
    sdfg = _build_sdfg(shift, arrays, domain=(4, 4, 3))
    kernel = _first_kernel(sdfg)
    with pytest.raises(IneligibleKernel, match="reads itself"):
        lower_kernel(kernel, sdfg)


def test_ineligible_kernel_raises_before_any_printer_runs(monkeypatch):
    """Every eligibility decision is taken while the tree is built: a
    kernel with no scalar form never reaches ``print_c``."""
    printed = []
    monkeypatch.setattr(
        loopnest, "print_c", lambda tree: printed.append(tree.name)
    )
    arrays = {"a": 1.0 + _rand((4, 4, 3)), "out": np.zeros((4, 4, 3))}
    sdfg = _build_sdfg(_logged, arrays)
    with pytest.raises(IneligibleKernel, match="bit-exact scalar form"):
        lower_kernel(_first_kernel(sdfg), sdfg)
    plan = compile_sdfg(sdfg, "compiled")
    assert plan.fallback_kernels and not plan.compiled_kernels
    assert printed == []


# ---------------------------------------------------------------------------
# the loop-nest tree: k-blocking legality, fusion, solver loop orders
# ---------------------------------------------------------------------------


@stencil
def _updown(a: Field, t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0
        out = t[0, 0, 1]


@stencil
def _downward(a: Field, t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0
        out = t[0, 0, -1]


def _three(shape):
    return {"a": _rand(shape), "t": np.zeros(shape), "out": np.zeros(shape)}


def test_upward_cross_statement_read_forces_full_k(monkeypatch):
    from repro.core import perfmodel

    monkeypatch.setattr(perfmodel, "CPU_K_BLOCK", 2)
    arrays = _three((4, 4, 7))
    # a downward read of an earlier statement's output may be k-blocked:
    # one strip-mined block loop, each section's k range clamped to it
    blocked = _tree(_downward, arrays, origin=(0, 0, 1), domain=(4, 4, 5))
    (strip,) = _nodes(blocked.body, Strip)
    assert strip.step == 2 and blocked.body == [strip]
    assert all(isinstance(n, Clamp) for n in strip.body)
    assert all(k.lo == "__k0" and k.hi == "__k1"
               for k in loops(blocked.body, "k"))
    # an upward one would see levels the block has not computed yet
    full = _tree(_updown, arrays, domain=(4, 4, 5))
    assert not _nodes(full.body, Strip) and not _nodes(full.body, Clamp)
    assert [(k.lo, k.hi) for k in loops(full.body, "k")] == [(0, 5), (0, 5)]

    sdfg = _build_sdfg(_updown, arrays, domain=(4, 4, 5))
    ref = {n: a.copy() for n, a in arrays.items()}
    got = {n: a.copy() for n, a in arrays.items()}
    compile_sdfg(sdfg)(arrays=ref, scalars={})
    compile_sdfg(sdfg, "compiled")(arrays=got, scalars={})
    np.testing.assert_array_equal(got["out"], ref["out"])


def test_pointwise_chain_is_fused_into_one_loop_nest():
    @stencil
    def chain(a: Field, t: Field, out: Field):
        with computation(PARALLEL), interval(...):
            t = a * 2.0
            out = t + 1.0

    tree = _tree(chain, _three((4, 4, 3)))
    # both statements share one loop nest: i (the thread axis) > j > k
    (nest,) = tree.body
    assert [lp.var for lp in loops([nest])] == ["i", "j", "k"]
    assert nest.parallel and not loops(nest.body, "j")[0].parallel
    assert [st.target.array.runtime for st in _nodes([nest], Store)] == [
        "t", "out",
    ]


@stencil
def _raw(a: Field, t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0
        out = t[1, 0, 0] + t[-1, 0, 0]


@stencil
def _war(a: Field, t: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = t[1, 0, 0] + t[-1, 0, 0]
        t = a * 2.0


def _assert_two_nests(stencil_obj):
    arrays = _three((6, 4, 3))
    arrays["t"] = _rand((6, 4, 3), seed=3)
    tree = _tree(stencil_obj, arrays, origin=(1, 0, 0), domain=(4, 4, 3))
    nests = loops(tree.body, "i")
    assert len(nests) == 2 and tree.body == nests
    assert [len(_nodes([n], Store)) for n in nests] == [1, 1]

    sdfg = _build_sdfg(stencil_obj, arrays, origin=(1, 0, 0),
                       domain=(4, 4, 3))
    ref = {n: a.copy() for n, a in arrays.items()}
    got = {n: a.copy() for n, a in arrays.items()}
    compile_sdfg(sdfg)(arrays=ref, scalars={})
    compile_sdfg(sdfg, "compiled")(arrays=got, scalars={})
    for name in arrays:
        np.testing.assert_array_equal(got[name], ref[name])


def test_offset_read_of_written_name_splits_the_cluster():
    """RAW: a neighbour read of a name the cluster writes must not fuse."""
    _assert_two_nests(_raw)


def test_write_of_a_neighbour_read_name_splits_the_cluster():
    """WAR: nor may a write of a name the cluster reads at a neighbour."""
    _assert_two_nests(_war)


@stencil
def _level_solver(a: Field, t: Field, out: Field):
    with computation(BACKWARD):
        with interval(-1, None):
            t = a
            out = t[1, 0, 0]
        with interval(0, -1):
            t = t[0, 0, 1] * 0.5 + a
            out = t[-1, 0, 0] + out[0, 0, 1]


def test_solver_runs_column_major_unless_it_reads_a_written_neighbour():
    # no horizontal dependence: all levels of one column, then the next
    column = _tree(_cumsum, {"a": _rand((5, 4, 7)), "out": np.zeros((5, 4, 7))})
    (nest,) = column.body
    assert (nest.var, nest.parallel) == ("i", True)
    (j,) = nest.body
    assert [(k.lo, k.hi, k.reverse) for k in j.body] == [
        (0, 1, False), (1, 7, False),
    ]
    # a neighbour read of an in-kernel write has no column-major order:
    # the kernel keeps its NumPy emission, level by level
    arrays = _three((6, 4, 5))
    with pytest.raises(IneligibleKernel, match="at offset"):
        _tree(_level_solver, arrays, origin=(1, 0, 0), domain=(4, 4, 5))

    sdfg = _build_sdfg(_level_solver, arrays, origin=(1, 0, 0),
                       domain=(4, 4, 5))
    ref = {n: a.copy() for n, a in arrays.items()}
    got = {n: a.copy() for n, a in arrays.items()}
    compile_sdfg(sdfg)(arrays=ref, scalars={})
    compile_sdfg(sdfg, "compiled")(arrays=got, scalars={})
    for name in arrays:
        np.testing.assert_array_equal(got[name], ref[name])


# ---------------------------------------------------------------------------
# where kernel values live
# ---------------------------------------------------------------------------


@stencil
def _scaled(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0
        if t > 1.0:
            out = t - 1.0
        else:
            out = t


def _ops(node, op):
    """Every ``Op`` named ``op`` in a value tree."""
    if not isinstance(node, Op):
        return []
    found = [node] if node.op == op else []
    return found + [f for arg in node.args for f in _ops(arg, op)]


def test_a_local_of_one_cluster_is_a_register_and_masks_are_selects():
    arrays = {"a": _rand((4, 4, 3)), "out": np.zeros((4, 4, 3))}
    sdfg = _build_sdfg(_scaled, arrays)
    unit = lower_kernel(_first_kernel(sdfg), sdfg)
    # neither the temporary nor the held test has an array ...
    assert [a.runtime for a in unit.tree.arrays] == ["a", "out"]
    assert len(unit.registers) == 2 and "t" in unit.registers
    # ... each is defined once, at zero, at the top of the point body
    lets = _nodes(unit.tree.body, Let)
    zeroed = {n.reg for n in lets if n.declare and n.value == Lit(0.0, "d")}
    assert zeroed >= {n.reg for n in lets if not n.declare}
    # a store has no mask: it selects between names, on one comparison
    stores = _nodes(unit.tree.body, Store)
    assert len(stores) == 2
    for store in stores:
        (select,) = _ops(store.value, "select")
        cond, then, orelse = select.args
        assert cond.op == "!=" and isinstance(cond.args[0], Reg)
        assert isinstance(then, Reg) and isinstance(orelse, Reg)
    # one plane: nothing for a k block to stay in cache for
    assert not _nodes(unit.tree.body, Strip)
    (k,) = loops(unit.tree.body, "k")
    assert k.independent

    plan = compile_sdfg(sdfg, "compiled")
    assert plan.plan_nbytes == [] and ".fill(0)" not in plan.source
    ref = {n: a.copy() for n, a in arrays.items()}
    got = {n: a.copy() for n, a in arrays.items()}
    compile_sdfg(sdfg)(arrays=ref, scalars={})
    plan(arrays=got, scalars={})
    np.testing.assert_array_equal(got["out"], ref["out"])


@stencil
def _neighbours(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        t = a * 2.0 + a[0, 1, 0]
        out = t[1, 0, 0] + t[-1, 0, 0]


def test_a_local_of_the_inputs_is_recomputed_where_it_is_read(monkeypatch):
    arrays = {"a": _rand((6, 6, 3)), "out": np.zeros((6, 6, 3))}
    kwargs = dict(origin=(1, 1, 0), domain=(4, 4, 3))
    tree = _tree(_neighbours, arrays, **kwargs)
    # one nest over a and out: t is evaluated at i+1 and at i-1
    (nest,) = tree.body
    assert [a.runtime for a in tree.arrays] == ["a", "out"]
    (store,) = _nodes([nest], Store)
    lets = [n for n in _nodes([nest], Let) if not n.declare]
    assert len(lets) == 2 and len({n.reg for n in lets}) == 2
    reads = sorted(
        ref.offset for n in lets for ref in _refs(n.value)
    )
    assert reads == [(-1, 0, 0), (-1, 1, 0), (1, 0, 0), (1, 1, 0)]

    ref, got, plan = _run_both(_neighbours, arrays, **kwargs)
    np.testing.assert_array_equal(got["out"], ref["out"])
    assert plan.plan_nbytes == []

    # priced out (core.perfmodel.recompute_pays), it is an array again:
    # two nests, the neighbour read splits the cluster, one planned value
    monkeypatch.setattr(
        "repro.core.perfmodel.recompute_pays", lambda *args: False
    )
    stored = _tree(_neighbours, arrays, **kwargs)
    assert len(stored.body) == 2
    assert [a.param for a in stored.arrays] == ["f0", "t_t", "f1"]
    ref, got, plan = _run_both(_neighbours, arrays, **kwargs)
    np.testing.assert_array_equal(got["out"], ref["out"])
    assert len(plan.plan_nbytes) == 1


def _refs(node):
    if isinstance(node, Ref):
        return [node]
    return [r for arg in getattr(node, "args", ()) for r in _refs(arg)]


def test_the_ppm_kernels_are_one_nest_over_three_arrays():
    """The kernels the rewrites were made for: ten locals, none left."""
    from repro.fv3.stencils.xppm import xppm_flux
    from repro.fv3.stencils.yppm import yppm_flux

    for stencil_obj in (xppm_flux, yppm_flux):
        fields, _, origin = _synthesize(stencil_obj)
        sdfg = _build_sdfg(stencil_obj, fields, origin, (NI, NJ, NK))
        kernel = _first_kernel(sdfg)
        unit = lower_kernel(kernel, sdfg)
        assert len(unit.tree.body) == 1 and len(unit.tree.arrays) == 3
        assert unit.registers == frozenset(kernel.local_arrays)
        assert len(unit.registers) == 10
        assert not _nodes(unit.tree.body, Strip)


# ---------------------------------------------------------------------------
# the printer: one tree, its C print, the definition's answer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stencil_obj", _discover())
def test_both_printers_of_one_tree_match_the_numpy_reference(
    stencil_obj, monkeypatch, tmp_path
):
    """Each FV3 stencil is lowered once; a plan generated from the same
    SDFG runs exactly the C print of those trees, and it reproduces the
    definition (:mod:`repro.dsl.oracle`) bit for bit. (The name is from
    when a Python print of the tree was checked beside it.)"""
    fields, scalars, origin = _synthesize(stencil_obj)
    domain = (NI, NJ, NK)
    ref = {n: a.copy() for n, a in fields.items()}
    run_oracle(stencil_obj, ref, scalars, origin=origin, domain=domain)
    sdfg = _build_sdfg(stencil_obj, fields, origin, domain)
    sdfg.expand_library_nodes()
    # lowered once, here, independently of any plan
    trees = []
    for kernel in sdfg.all_kernels():
        try:
            trees.append(lower_kernel(kernel, sdfg).tree)
        except IneligibleKernel:
            pass
    monkeypatch.setenv("REPRO_JIT_DIR", str(tmp_path))
    jit.reset(engine=True)
    # generates an image and materialises it: what the plan runs is the
    # C print of those trees
    plan = compile_sdfg(sdfg, "compiled")
    assert [unit.text for unit in plan.image.units] \
        == [print_c(tree) for tree in trees]
    got = {n: a.copy() for n, a in fields.items()}
    plan(arrays=got, scalars=scalars)
    for name in fields:
        np.testing.assert_array_equal(
            got[name], ref[name],
            err_msg=f"{stencil_obj.name}: {name!r} diverged under the "
            "C printer",
        )


# ---------------------------------------------------------------------------
# plan contract
# ---------------------------------------------------------------------------


def test_mismatched_array_raises_plan_bind_error():
    arrays = {"a": _rand((4, 4, 3)), "out": np.zeros((4, 4, 3))}
    sdfg = _build_sdfg(_lap, arrays, origin=(1, 1, 0), domain=(2, 2, 3))
    plan = compile_sdfg(sdfg, "compiled")
    bad = {"a": np.zeros((4, 4, 4)), "out": np.zeros((4, 4, 3))}
    with pytest.raises(PlanBindError, match="does not match"):
        plan(arrays=bad, scalars={"w": 1.0})


def test_a_storage_layout_the_plan_refuses_is_named_by_its_strides():
    """A ``make_storage`` field has the plan's shape and dtype but the
    storage policy's padded, I-contiguous layout: the error names the
    strides it got and the ones it takes, not the same shape twice."""
    from repro.dsl import make_storage

    arrays = {"a": _rand((4, 4, 3)), "out": np.zeros((4, 4, 3))}
    sdfg = _build_sdfg(_lap, arrays, origin=(1, 1, 0), domain=(2, 2, 3))
    plan = compile_sdfg(sdfg, "compiled")
    stored = make_storage((4, 4, 3))
    assert not stored.flags.c_contiguous
    with pytest.raises(PlanBindError) as err:
        plan(arrays={"a": stored, "out": np.zeros((4, 4, 3))},
             scalars={"w": 1.0})
    message = str(err.value)
    assert f"got strides {stored.strides}" in message
    assert "C-contiguous would be (96, 24, 8)" in message
    assert message.count("(4, 4, 3)") == 1


@pytest.mark.traced
def test_instrumented_plan_records_kernel_times():
    """A compiled plan called while tracing returns that call's kernel
    times — a second call does not see the first's — and ``None``
    untraced."""
    from repro import obs

    arrays = {"a": _rand((4, 4, 3)), "out": np.zeros((4, 4, 3))}
    sdfg = _build_sdfg(_lap, arrays, origin=(1, 1, 0), domain=(2, 2, 3))
    plan = compile_sdfg(sdfg, "compiled")
    for _ in range(2):
        times = plan(arrays=arrays, scalars={"w": 1.0})
        (total, count), = times.values()
        assert count == 1 and total >= 0.0
    obs.get_tracer().disable()
    assert plan(arrays=arrays, scalars={"w": 1.0}) is None


def test_unavailable_engine_raises(monkeypatch):
    monkeypatch.setenv("REPRO_CC", "/nonexistent/repro-no-cc")
    jit.reset(engine=True)
    arrays = {"a": _rand((4, 4, 3)), "out": np.zeros((4, 4, 3))}
    sdfg = _build_sdfg(_lap, arrays, origin=(1, 1, 0), domain=(2, 2, 3))
    with pytest.raises(jit.JitUnavailableError):
        compile_sdfg(sdfg, "compiled")
