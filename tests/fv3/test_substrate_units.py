"""Unit tests for the smaller substrate pieces: Quantity, corners,
grid metrics, config arithmetic (the communicator has its own suite,
``test_communicator.py``)."""

import numpy as np
import pytest

from repro.fv3 import constants
from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.corners import fill_corners, rank_corners
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.fv3.quantity import Quantity


# ---------------------------------------------------------------------------
# Quantity
# ---------------------------------------------------------------------------

def test_quantity_views_and_metadata():
    q = Quantity.zeros("delp", 8, 8, 4, units="Pa")
    assert q.data.shape == (14, 14, 4)
    assert q.view.shape == (8, 8, 4)
    assert q.domain == (8, 8, 4)
    assert q.origin == (3, 3, 0)
    q.view[...] = 7.0
    assert q.data[3, 3, 0] == 7.0
    assert q.data[0, 0, 0] == 0.0  # halo untouched
    assert "Pa" in repr(q)


def test_quantity_2d():
    q = Quantity.zeros("area", 6, 6, units="m^2", n_halo=2)
    assert q.data.shape == (10, 10)
    assert q.dims == ("x", "y")
    assert q.origin == (2, 2)


def test_quantity_copy_is_deep():
    q = Quantity.zeros("a", 4, 4, 2)
    c = q.copy()
    c.view[...] = 1.0
    assert q.view.max() == 0.0


def test_quantity_storage_is_aligned():
    from repro.dsl.storage import is_aligned

    q = Quantity.zeros("a", 16, 16, 8)
    assert is_aligned(q.data, (3, 3, 0), 64)


# ---------------------------------------------------------------------------
# Corner fills
# ---------------------------------------------------------------------------

def test_fill_corners_x_sw_formula():
    h = 3
    n = 6
    q = np.full((n + 2 * h, n + 2 * h), np.nan)
    q[h:-h, h:-h] = 0.0
    # fill west halo with known values (as a halo exchange would)
    q[:h, h:-h] = np.arange(h)[:, None] + 10.0
    q[h:-h, :h] = np.arange(h)[None, :] + 100.0
    fill_corners(q, "x", corners=("sw",), n_halo=h)
    # dst[a, b] = q[b, 2h-1-a]: corner cells come from the west halo block
    for a in range(h):
        for b in range(h):
            assert q[a, b] == q[b, 2 * h - 1 - a]
    assert not np.isnan(q[:h, :h]).any()


def test_fill_corners_all_corners_and_directions():
    h = 3
    n = 8
    rng = np.random.default_rng(0)
    for direction in ("x", "y"):
        q = np.full((n + 2 * h, n + 2 * h), np.nan)
        q[h:-h, :] = rng.random((n, n + 2 * h))
        q[:, h:-h] = rng.random((n + 2 * h, n))
        fill_corners(q, direction, n_halo=h)
        assert not np.isnan(q).any()


def test_fill_corners_3d_broadcasts_over_k():
    h, n, nk = 3, 6, 4
    q = np.zeros((n + 2 * h, n + 2 * h, nk))
    q[:h, h:-h] = 5.0
    q[h:-h, :h] = 9.0
    fill_corners(q, "x", corners=("sw",), n_halo=h)
    # every k level filled identically
    for k in range(1, nk):
        np.testing.assert_array_equal(q[:h, :h, 0], q[:h, :h, k])


def test_rank_corners_layouts():
    p1 = CubedSpherePartitioner(12, 1)
    assert set(rank_corners(p1, 0)) == {"sw", "se", "nw", "ne"}
    p2 = CubedSpherePartitioner(12, 2)
    assert rank_corners(p2, p2.rank_at(0, 0, 0)) == ["sw"]
    assert rank_corners(p2, p2.rank_at(0, 1, 1)) == ["ne"]


# ---------------------------------------------------------------------------
# Grid metrics
# ---------------------------------------------------------------------------

def test_grid_total_area_is_sphere():
    p = CubedSpherePartitioner(8, 1)
    total = sum(
        CubedSphereGrid.build(p, r, n_halo=2).global_area()
        for r in range(6)
    )
    sphere = 4.0 * np.pi * constants.RADIUS**2
    assert total == pytest.approx(sphere, rel=1e-10)


def test_grid_metric_positivity_and_symmetry():
    p = CubedSpherePartitioner(12, 1)
    g = CubedSphereGrid.build(p, 0, n_halo=3)
    assert np.all(g.area > 0)
    assert np.all(g.dx > 0) and np.all(g.dy > 0)
    # coriolis bounded by 2Ω
    assert np.max(np.abs(g.f_cor)) <= 2 * constants.OMEGA + 1e-12
    # equiangular gnomonic tiles: cell widths vary smoothly within a
    # bounded factor across the face
    h = 3
    c = g.dx[h:-h, h:-h]
    assert c.max() / c.min() < 1.6
    # mirror symmetry of the projection about the tile center line
    np.testing.assert_allclose(c, c[::-1, :], rtol=1e-12)


def test_wind_basis_roundtrip():
    p = CubedSpherePartitioner(8, 1)
    for tile_rank in range(6):
        g = CubedSphereGrid.build(p, tile_rank, n_halo=2)
        rng = np.random.default_rng(tile_rank)
        u_e = rng.standard_normal(g.shape)
        v_n = rng.standard_normal(g.shape)
        u_l, v_l = g.wind_to_local(u_e, v_n)
        u_e2, v_n2 = g.wind_to_earth(u_l, v_l)
        np.testing.assert_allclose(u_e2, u_e, atol=1e-10)
        np.testing.assert_allclose(v_n2, v_n, atol=1e-10)


# ---------------------------------------------------------------------------
# Config arithmetic
# ---------------------------------------------------------------------------

def test_config_substep_arithmetic():
    cfg = DynamicalCoreConfig(npx=48, npz=16, dt_atmos=450.0, k_split=3,
                              n_split=5)
    assert cfg.dt_remap == pytest.approx(150.0)
    assert cfg.dt_acoustic == pytest.approx(30.0)
    assert cfg.nx_rank == 48


def test_config_rejects_small_subdomains():
    with pytest.raises(ValueError, match="subdomain too small"):
        DynamicalCoreConfig(npx=8, npz=8, layout=2)
