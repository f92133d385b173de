"""Property-based tests (hypothesis) on core data structures and
numerical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dsl.extents import Extent
from repro.dsl.storage import StorageSpec, is_aligned, make_storage
from repro.sdfg.subsets import Range

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")

# ---------------------------------------------------------------------------
# Extent algebra
# ---------------------------------------------------------------------------

extents = st.builds(
    Extent,
    st.integers(-4, 0), st.integers(0, 4),
    st.integers(-4, 0), st.integers(0, 4),
    st.integers(-2, 0), st.integers(0, 2),
)


@given(extents, extents)
def test_extent_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(extents, extents, extents)
def test_extent_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(extents)
def test_extent_union_idempotent(a):
    assert a.union(a) == a
    assert a.union(Extent.zero()).halo_width >= 0


@given(extents, st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-2, 2)))
def test_extent_shift_normalize_contains_zero(a, offset):
    s = a.shifted(offset).normalized()
    assert s.i_lo <= 0 <= s.i_hi
    assert s.j_lo <= 0 <= s.j_hi


# ---------------------------------------------------------------------------
# Range (memlet subset) algebra
# ---------------------------------------------------------------------------

def ranges(ndim=3):
    def make(dims):
        return Range(tuple((a, a + w) for a, w in dims))

    return st.builds(
        make,
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10)),
            min_size=ndim, max_size=ndim,
        ),
    )


@given(ranges(), ranges())
def test_range_union_covers_both(a, b):
    u = a.union(b)
    assert u.covers(a) and u.covers(b)
    assert u.volume() >= max(a.volume(), b.volume())


@given(ranges(), ranges())
def test_range_intersection_contained(a, b):
    inter = a.intersection(b)
    if inter is not None:
        assert a.covers(inter) and b.covers(inter)
        assert inter.volume() <= min(a.volume(), b.volume())


# ---------------------------------------------------------------------------
# Storage allocation (Fig. 8)
# ---------------------------------------------------------------------------

@given(
    st.tuples(st.integers(2, 20), st.integers(2, 20), st.integers(1, 10)),
    st.sampled_from([8, 16, 32, 64, 128]),
    st.sampled_from(["F", "C"]),
)
def test_storage_alignment_always_satisfied(shape, alignment, layout):
    idx = (1, 1, 0)
    arr = make_storage(
        shape,
        spec=StorageSpec(layout=layout, alignment_bytes=alignment),
        aligned_index=idx,
    )
    assert arr.shape == shape
    assert is_aligned(arr, idx, alignment)
    # layout property
    if layout == "F":
        assert arr.strides[0] == arr.itemsize
    else:
        assert arr.strides[-1] == arr.itemsize


def test_a_negative_stride_padding_is_refused():
    """``-3`` made the byte strides (8, 40, 320) of an (8, 8, 4) field,
    so ``a[5, 0, 0]`` and ``a[0, 1, 0]`` were one element."""
    for pad in (-3, -9):
        with pytest.raises(ValueError, match="stride_padding must be >= 0"):
            StorageSpec(stride_padding=pad)


# ---------------------------------------------------------------------------
# PPM transport invariants
# ---------------------------------------------------------------------------

@given(
    hnp.arrays(
        np.float64, (14, 3, 2),
        elements=st.floats(-10, 10, allow_nan=False),
    ),
    st.floats(-0.95, 0.95),
)
def test_ppm_flux_bounded_by_stencil_window(q, c):
    from repro.fv3.stencils.xppm import xppm_flux

    cr = np.full(q.shape, c)
    flux = np.zeros_like(q)
    xppm_flux(q, cr, flux, origin=(3, 0, 0), domain=(8, 3, 2))
    for i in range(3, 11):
        window = q[i - 3 : i + 2]
        assert np.all(flux[i] >= window.min(axis=0) - 1e-9)
        assert np.all(flux[i] <= window.max(axis=0) + 1e-9)


@given(st.floats(-5, 5, allow_nan=False), st.floats(-0.9, 0.9))
def test_ppm_flux_constant_preservation(value, c):
    from repro.fv3.stencils.xppm import xppm_flux

    q = np.full((12, 2, 1), value)
    cr = np.full(q.shape, c)
    flux = np.zeros_like(q)
    xppm_flux(q, cr, flux, origin=(3, 0, 0), domain=(7, 2, 1))
    np.testing.assert_allclose(flux[3:-2], value, atol=1e-12)


# ---------------------------------------------------------------------------
# Tridiagonal solver vs scipy on random diagonally dominant systems
# ---------------------------------------------------------------------------

@given(
    hnp.arrays(np.float64, (2, 1, 12),
               elements=st.floats(0.05, 2.0)),
    hnp.arrays(np.float64, (2, 1, 12),
               elements=st.floats(0.05, 2.0)),
    hnp.arrays(np.float64, (2, 1, 12),
               elements=st.floats(-5.0, 5.0)),
)
def test_tridiagonal_matches_scipy(aa, cc, dd):
    from repro.fv3 import reference
    from repro.fv3.stencils.riem_solver_c import tridiagonal_solve

    aa = aa.copy()
    cc = cc.copy()
    aa[..., 0] = 0.0
    cc[..., -1] = 0.0
    bb = 1.0 + aa + cc
    w = np.zeros_like(dd)
    gam = np.zeros_like(dd)
    tridiagonal_solve(aa, bb, cc, dd, w, gam,
                      origin=(0, 0, 0), domain=dd.shape)
    ref = reference.thomas_tridiagonal(aa, bb, cc, dd)
    np.testing.assert_allclose(w, ref, rtol=1e-9, atol=1e-10)


# ---------------------------------------------------------------------------
# Conservative vertical remap
# ---------------------------------------------------------------------------

@given(
    hnp.arrays(np.float64, (2, 2, 8), elements=st.floats(-3, 3)),
    hnp.arrays(np.float64, (2, 2, 8), elements=st.floats(-0.2, 0.2)),
)
def test_remap_conserves_column_mass(q, noise):
    from repro.fv3.stencils.remapping import (
        interface_pressures,
        remap_layer,
        target_levels,
    )

    nx, ny, nk = q.shape
    ptop = 100.0
    delp = 1000.0 * (1.0 + noise)
    pe1 = np.zeros((nx, ny, nk + 1))
    pe2 = np.zeros((nx, ny, nk + 1))
    q_new = np.zeros_like(q)
    bk = np.linspace(0.0, 1.0, nk + 1)
    interface_pressures(delp, pe1, ptop,
                        origin=(0, 0, 0), domain=(nx, ny, nk + 1))
    target_levels(pe1, pe2, bk, ptop,
                  origin=(0, 0, 0), domain=(nx, ny, nk + 1))
    remap_layer(q, q_new, pe1, pe2, origin=(0, 0, 0), domain=q.shape)
    mass_src = np.sum(q * np.diff(pe1, axis=-1), axis=-1)
    mass_dst = np.sum(q_new * np.diff(pe2, axis=-1), axis=-1)
    np.testing.assert_allclose(mass_dst, mass_src, rtol=1e-10, atol=1e-7)


# ---------------------------------------------------------------------------
# Transformation correctness on randomized inputs
# ---------------------------------------------------------------------------

@given(
    hnp.arrays(np.float64, (10, 8, 3), elements=st.floats(-5, 5)),
    st.floats(-3, 3),
)
def test_otf_fusion_equivalence_random_inputs(a, scale):
    from repro.dsl import Field, PARALLEL, computation, interval, stencil
    from repro.sdfg import SDFG
    from repro.sdfg.codegen import compile_sdfg
    from repro.sdfg.nodes import StencilComputation
    from repro.sdfg.transformations import OTFMapFusion

    @stencil
    def produce(x: Field, t: Field, s: float):
        with computation(PARALLEL), interval(...):
            t = x * s + 1.0

    @stencil
    def consume(t: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = t[-1, 0, 0] + t[1, 0, 0]

    def build():
        sdfg = SDFG("p")
        sdfg.add_array("x", a.shape)
        sdfg.add_array("out", a.shape)
        sdfg.add_transient("t", a.shape)
        state = sdfg.add_state("s0")
        state.add(StencilComputation(
            produce.definition, produce.extents,
            mapping={"x": "x", "t": "t"}, domain=(10, 8, 3),
            origin=(0, 0, 0), scalar_mapping={"s": "s"},
        ))
        state.add(StencilComputation(
            consume.definition, consume.extents,
            mapping={"t": "t", "out": "out"}, domain=(8, 8, 3),
            origin=(1, 0, 0),
        ))
        sdfg.expand_library_nodes()
        return sdfg

    def run(sdfg):
        arrays = {"x": a.copy(), "out": np.zeros(a.shape)}
        compile_sdfg(sdfg)(arrays=arrays, scalars={"s": scale})
        return arrays["out"]

    plain = run(build())
    fused_sdfg = build()
    assert OTFMapFusion().apply_first(fused_sdfg)
    fused = run(fused_sdfg)
    np.testing.assert_allclose(plain, fused, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# Preprocessor constant folding
# ---------------------------------------------------------------------------

@given(st.integers(0, 5), st.integers(-10, 10))
def test_preprocessor_unroll_matches_python(n, base):
    import ast

    from repro.orchestration.closure import get_function_ast
    from repro.orchestration.preprocessor import preprocess_function

    def f():
        acc = BASE  # noqa: F821
        for i in range(N):  # noqa: F821
            acc = acc + i
        return acc

    out = preprocess_function(
        get_function_ast(f), {"N": n, "BASE": base}
    )
    namespace = {}
    exec(compile(ast.Module(body=[out], type_ignores=[]), "<t>", "exec"),
         namespace)
    assert namespace["f"]() == base + sum(range(n))
