"""NumPy backend semantics tests (the DSL's reference semantics)."""

import numpy as np
import pytest

from repro.dsl import (
    BACKWARD,
    FORWARD,
    PARALLEL,
    Field,
    FieldIJ,
    FieldK,
    computation,
    horizontal,
    i_end,
    i_start,
    interval,
    j_start,
    region,
    stencil,
)
from repro.dsl.bounds import GridBounds


def _rand(shape, seed=0):
    return np.random.default_rng(seed).random(shape)


def test_copy_stencil():
    @stencil
    def copy(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    a = _rand((6, 5, 4))
    b = np.zeros_like(a)
    copy(a, b, origin=(0, 0, 0), domain=(6, 5, 4))
    np.testing.assert_array_equal(a, b)


def test_laplacian_matches_reference():
    @stencil
    def lap(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a[-1, 0, 0] + a[1, 0, 0] + a[0, -1, 0] + a[0, 1, 0] - 4.0 * a

    a = _rand((8, 8, 3))
    out = np.zeros_like(a)
    lap(a, out)  # default origin=(1,1,0), domain inferred
    ref = (
        a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:] - 4.0 * a[1:-1, 1:-1]
    )
    np.testing.assert_allclose(out[1:-1, 1:-1], ref)
    # halo untouched
    assert np.all(out[0] == 0) and np.all(out[-1] == 0)


def test_statement_order_semantics_updated_values():
    # second statement reads the value the first statement just wrote
    @stencil
    def seq(a: Field, b: Field, c: Field):
        with computation(PARALLEL), interval(...):
            b = a * 2.0
            c = b * 3.0

    a = _rand((4, 4, 2))
    b = np.zeros_like(a)
    c = np.zeros_like(a)
    seq(a, b, c, origin=(0, 0, 0), domain=(4, 4, 2))
    np.testing.assert_allclose(c, a * 6.0)


def test_forward_solver_cumulative_sum():
    @stencil
    def cumsum(a: Field, out: Field):
        with computation(FORWARD):
            with interval(0, 1):
                out = a
            with interval(1, None):
                out = out[0, 0, -1] + a

    a = _rand((3, 3, 10))
    out = np.zeros_like(a)
    cumsum(a, out, origin=(0, 0, 0), domain=(3, 3, 10))
    np.testing.assert_allclose(out, np.cumsum(a, axis=2))


def test_backward_solver():
    @stencil
    def back(a: Field, out: Field):
        with computation(BACKWARD):
            with interval(-1, None):
                out = a
            with interval(0, -1):
                out = out[0, 0, 1] + a

    a = _rand((3, 3, 8))
    out = np.zeros_like(a)
    back(a, out, origin=(0, 0, 0), domain=(3, 3, 8))
    np.testing.assert_allclose(out, np.cumsum(a[:, :, ::-1], axis=2)[:, :, ::-1])


def test_tridiagonal_thomas_solver_matches_scipy():
    from scipy.linalg import solve_banded

    @stencil
    def tridiag(a: Field, b: Field, c: Field, d: Field, x: Field):
        # Thomas algorithm: forward sweep then back substitution
        with computation(FORWARD):
            with interval(0, 1):
                w = c / b
                g = d / b
            with interval(1, None):
                w = c / (b - a * w[0, 0, -1])
                g = (d - a * g[0, 0, -1]) / (b - a * w[0, 0, -1])
        with computation(BACKWARD):
            with interval(-1, None):
                x = g
            with interval(0, -1):
                x = g - w * x[0, 0, 1]

    rng = np.random.default_rng(42)
    nk = 20
    shape = (2, 2, nk)
    b = 4.0 + rng.random(shape)  # diagonally dominant
    a = rng.random(shape)
    c = rng.random(shape)
    d = rng.random(shape)
    x = np.zeros(shape)
    tridiag(a, b, c, d, x, origin=(0, 0, 0), domain=shape)

    for i in range(2):
        for j in range(2):
            ab = np.zeros((3, nk))
            ab[0, 1:] = c[i, j, :-1]
            ab[1, :] = b[i, j, :]
            ab[2, :-1] = a[i, j, 1:]
            ref = solve_banded((1, 1), ab, d[i, j])
            np.testing.assert_allclose(x[i, j], ref, rtol=1e-12)


def test_masked_assignment_preserves_old_values():
    @stencil
    def relu(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = 0.0
            if a > 0.5:
                out = a

    a = _rand((5, 5, 3))
    out = np.full_like(a, -1.0)
    relu(a, out, origin=(0, 0, 0), domain=(5, 5, 3))
    np.testing.assert_allclose(out, np.where(a > 0.5, a, 0.0))


def test_if_elif_else_chain():
    @stencil
    def tri(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            if a < 0.25:
                out = 1.0
            elif a < 0.75:
                out = 2.0
            else:
                out = 3.0

    a = _rand((6, 6, 2))
    out = np.zeros_like(a)
    tri(a, out, origin=(0, 0, 0), domain=(6, 6, 2))
    ref = np.where(a < 0.25, 1.0, np.where(a < 0.75, 2.0, 3.0))
    np.testing.assert_allclose(out, ref)


def test_temporary_extent_execution():
    # smoothing through a temporary requires computing it on an extended domain
    @stencil
    def smooth(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            t = (a[-1, 0, 0] + a[1, 0, 0]) * 0.5
            out = (t[-1, 0, 0] + t[1, 0, 0]) * 0.5

    n = 10
    a = _rand((n, 3, 2))
    out = np.zeros_like(a)
    smooth(a, out, origin=(2, 0, 0), domain=(n - 4, 3, 2))
    t_ref = (a[:-2] + a[2:]) * 0.5  # t[i] for i in [1, n-1)
    ref = (t_ref[:-2] + t_ref[2:]) * 0.5  # out[i] for i in [2, n-2)
    np.testing.assert_allclose(out[2:-2], ref)


def test_2d_and_k_fields_broadcast():
    @stencil
    def mixed(a: Field, m: FieldIJ, w: FieldK, out: Field):
        with computation(PARALLEL), interval(...):
            out = a * m + w

    a = _rand((4, 5, 6))
    m = _rand((4, 5), seed=1)
    w = _rand((6,), seed=2)
    out = np.zeros_like(a)
    mixed(a, m, w, out, origin=(0, 0, 0), domain=(4, 5, 6))
    np.testing.assert_allclose(out, a * m[:, :, None] + w[None, None, :])


def test_k_index_expression():
    @stencil
    def levels(out: Field):
        with computation(PARALLEL), interval(...):
            out = K_INDEX * 1.0  # noqa: F821 - DSL axis index

    out = np.zeros((2, 2, 5))
    levels(out, origin=(0, 0, 0), domain=(2, 2, 5))
    np.testing.assert_allclose(out[0, 0], np.arange(5.0))


def test_horizontal_region_single_row():
    @stencil
    def edge(v: Field, flux: Field, dt2: float):
        with computation(PARALLEL), interval(...):
            flux = dt2 * v * 0.5
            with horizontal(region[:, j_start]):
                flux = dt2 * v

    v = np.ones((4, 4, 2))
    flux = np.zeros_like(v)
    edge(v, flux, 2.0, origin=(0, 0, 0), domain=(4, 4, 2))
    np.testing.assert_allclose(flux[:, 0], 2.0)
    np.testing.assert_allclose(flux[:, 1:], 1.0)


def test_horizontal_region_distributed_bounds():
    @stencil
    def edge(v: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = v
            with horizontal(region[i_start, :]):
                out = -v

    v = np.ones((4, 4, 1))
    # rank that does NOT own the tile's i_start edge: region must not apply
    out = np.zeros_like(v)
    interior = GridBounds(origin=(4, 0), tile_shape=(12, 4))
    edge(v, out, origin=(0, 0, 0), domain=(4, 4, 1), bounds=interior)
    np.testing.assert_allclose(out, 1.0)
    # rank that owns the edge
    out2 = np.zeros_like(v)
    owner = GridBounds(origin=(0, 0), tile_shape=(12, 4))
    edge(v, out2, origin=(0, 0, 0), domain=(4, 4, 1), bounds=owner)
    np.testing.assert_allclose(out2[0], -1.0)
    np.testing.assert_allclose(out2[1:], 1.0)


def test_region_slice_between_anchors():
    @stencil
    def band(out: Field):
        with computation(PARALLEL), interval(...):
            out = 0.0
            with horizontal(region[i_start : i_end, :]):
                out = 1.0

    out = np.zeros((6, 3, 1))
    band(out, origin=(0, 0, 0), domain=(6, 3, 1))
    # i_end is the last point; slice [start, end) covers indices 0..4
    np.testing.assert_allclose(out[0:5], 1.0)
    np.testing.assert_allclose(out[5], 0.0)


def test_shape_validation_error():
    @stencil
    def lap(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = a[-1, 0, 0] + a[1, 0, 0]

    a = np.zeros((4, 4, 2))
    out = np.zeros_like(a)
    with pytest.raises(ValueError, match="cannot satisfy accesses"):
        lap(a, out, origin=(0, 0, 0), domain=(4, 4, 2))


def test_missing_argument_error():
    @stencil
    def copy(a: Field, b: Field):
        with computation(PARALLEL), interval(...):
            b = a

    with pytest.raises(TypeError, match="missing argument"):
        copy(np.zeros((2, 2, 2)), origin=(0, 0, 0), domain=(2, 2, 2))


def test_scalar_parameters_used_in_expression():
    @stencil
    def axpy(x: Field, y: Field, alpha: float):
        with computation(PARALLEL), interval(...):
            y = alpha * x + y

    x = _rand((3, 3, 3))
    y = _rand((3, 3, 3), seed=9)
    y0 = y.copy()
    axpy(x, y, 2.5, origin=(0, 0, 0), domain=(3, 3, 3))
    np.testing.assert_allclose(y, 2.5 * x + y0)


def test_math_functions():
    @stencil
    def funcs(a: Field, out: Field):
        with computation(PARALLEL), interval(...):
            out = sqrt(abs(a)) + min(a, 0.5) * max(a, 0.5)  # noqa: F821

    a = _rand((3, 3, 2)) - 0.5
    out = np.zeros_like(a)
    funcs(a, out, origin=(0, 0, 0), domain=(3, 3, 2))
    ref = np.sqrt(np.abs(a)) + np.minimum(a, 0.5) * np.maximum(a, 0.5)
    np.testing.assert_allclose(out, ref)


def test_smagorinsky_power_motif():
    """The paper's Sec. VI-C1 kernel: vort = dt*(delpc**2 + vort**2)**0.5."""

    @stencil
    def smag(delpc: Field, vort: Field, dt: float):
        with computation(PARALLEL), interval(...):
            vort = dt * (delpc**2.0 + vort**2.0) ** 0.5

    delpc = _rand((4, 4, 3))
    vort = _rand((4, 4, 3), seed=5)
    ref = 0.1 * np.sqrt(delpc**2 + vort**2)
    smag(delpc, vort, 0.1, origin=(0, 0, 0), domain=(4, 4, 3))
    np.testing.assert_allclose(vort, ref)
