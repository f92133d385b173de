"""Bit-identity of halo exchange across all 12 cube edges (PR 10).

The 6-tile (layout=1) decomposition exercises every cube-edge seam:
each of the 24 (tile, edge) directed crossings maps — via the
geometric connectivity table — onto one of the 12 undirected cube
edges, several of them with a nonzero frame rotation. These tests pin
down the exchange as *exact value transport*: every edge-halo cell
must hold, bit for bit, the mapped source cell's value (scalars), or
the mapped source vector rotated by the seam's quarter-turn matrix
(vectors). The expectation is computed independently of the gather
plans, straight from ``_tile_edge_map`` and ``_ROTATIONS``.
"""

import numpy as np
import pytest

from repro.fv3.halo import HaloUpdater, _tile_edge_map
from repro.fv3.partitioner import (
    CONNECTIVITY,
    EDGES,
    _ROTATIONS,
    CubedSpherePartitioner,
)
from tests.fv3.halo_support import update_scalar

H = 3
NPX = 8


def _edge_halo_cells(npx):
    """(gi, gj) of every halo cell with exactly one axis out of range —
    the edge (non-corner) halo bands on all four sides."""
    cells = []
    for g in range(npx):
        for d in range(1, H + 1):
            cells.append((g, -d))        # S band
            cells.append((g, npx - 1 + d))  # N band
            cells.append((-d, g))        # W band
            cells.append((npx - 1 + d, g))  # E band
    return cells


def _crossing_edge(npx, gi, gj):
    if gj >= npx:
        return "N"
    if gj < 0:
        return "S"
    if gi >= npx:
        return "E"
    return "W"


def _scalar_value(tile, gi, gj):
    # exactly representable float per global cell
    return float(tile * 10000 + gi * 100 + gj)


def _build_fields(p, value_fn):
    fields = []
    for rank in range(p.total_ranks):
        f = np.full((p.nx + 2 * H, p.ny + 2 * H), np.nan)
        tile = p.tile_of(rank)
        for gi in range(p.nx):
            for gj in range(p.ny):
                f[gi + H, gj + H] = value_fn(tile, gi, gj)
        fields.append(f)
    return fields


def test_connectivity_covers_all_twelve_cube_edges():
    """The 24 directed (tile, edge) crossings pair up into exactly 12
    undirected cube edges, and the seam table is involutive."""
    seams = set()
    for tile in range(6):
        for edge in EDGES:
            conn = CONNECTIVITY[(tile, edge)]
            seams.add(frozenset([(tile, edge), (conn.tile, conn.edge)]))
            back = CONNECTIVITY[(conn.tile, conn.edge)]
            assert (back.tile, back.edge) == (tile, edge)
    assert len(seams) == 12
    # the cube cannot be laid out without rotated seams
    assert any(
        CONNECTIVITY[(t, e)].rotations != 0
        for t in range(6) for e in EDGES
    )


def test_scalar_edge_halos_bit_identical_on_all_cube_edges():
    """Every edge-halo cell equals — bit for bit — the interior value of
    the cell it maps to through the adjoining face, on all 24 directed
    crossings."""
    p = CubedSpherePartitioner(npx=NPX, layout=1)
    fields = _build_fields(p, _scalar_value)
    update_scalar(HaloUpdater(p, n_halo=H), fields)
    crossings = set()
    for rank in range(p.total_ranks):
        tile = p.tile_of(rank)
        for gi, gj in _edge_halo_cells(NPX):
            tile2, gi2, gj2, _rot = _tile_edge_map(NPX, tile, gi, gj)
            expected = _scalar_value(tile2, gi2, gj2)
            got = fields[rank][gi + H, gj + H]
            assert got == expected, (
                f"tile {tile} halo cell ({gi},{gj}) -> "
                f"tile {tile2} ({gi2},{gj2}): {got!r} != {expected!r}"
            )
            crossings.add((tile, _crossing_edge(NPX, gi, gj)))
    assert len(crossings) == 24  # all directed crossings exercised


def test_vector_edge_halos_rotated_bit_identically():
    """Vector halos are the mapped source vector transformed by the
    seam's quarter-turn matrix — exact, because the matrix entries are
    0/±1. Covers every directed crossing, including all nonzero
    rotations."""
    p = CubedSpherePartitioner(npx=NPX, layout=1)

    def uval(tile, gi, gj):
        return float(tile * 10000 + gi * 100 + gj) + 0.25

    def vval(tile, gi, gj):
        return -float(tile * 10000 + gj * 100 + gi) - 0.5

    u = _build_fields(p, uval)
    v = _build_fields(p, vval)
    HaloUpdater(p, n_halo=H).update_vector(u, v)
    rotated_crossings = set()
    for rank in range(p.total_ranks):
        tile = p.tile_of(rank)
        for gi, gj in _edge_halo_cells(NPX):
            tile2, gi2, gj2, rot = _tile_edge_map(NPX, tile, gi, gj)
            m = _ROTATIONS[rot % 4]
            us, vs = uval(tile2, gi2, gj2), vval(tile2, gi2, gj2)
            eu = m[0, 0] * us + m[0, 1] * vs
            ev = m[1, 0] * us + m[1, 1] * vs
            assert u[rank][gi + H, gj + H] == eu, (
                f"u at tile {tile} ({gi},{gj}) from tile {tile2} "
                f"({gi2},{gj2}) rot {rot}"
            )
            assert v[rank][gi + H, gj + H] == ev, (
                f"v at tile {tile} ({gi},{gj}) from tile {tile2} "
                f"({gi2},{gj2}) rot {rot}"
            )
            if rot % 4:
                rotated_crossings.add(
                    (tile, _crossing_edge(NPX, gi, gj))
                )
    # the nontrivial orientation transforms were genuinely exercised
    assert rotated_crossings


@pytest.mark.parametrize("layout", [1, 2])
def test_corner_halo_cells_filled_and_layout_invariant(layout):
    """Two-phase exchange fills the corner halo columns too; per-global-
    cell values at cube seams do not depend on the rank layout."""
    npx = 8
    p = CubedSpherePartitioner(npx=npx, layout=layout)
    fields = []
    for rank in range(p.total_ranks):
        ox, oy = p.subdomain_origin(rank)
        tile = p.tile_of(rank)
        f = np.full((p.nx + 2 * H, p.ny + 2 * H), np.nan)
        for i in range(p.nx):
            for j in range(p.ny):
                f[i + H, j + H] = _scalar_value(tile, ox + i, oy + j)
        fields.append(f)
    update_scalar(HaloUpdater(p, n_halo=H), fields)
    for rank in range(p.total_ranks):
        tile = p.tile_of(rank)
        got = fields[rank]
        # edge bands (one axis out) must be exact on every rank
        ox, oy = p.subdomain_origin(rank)
        for li in range(-H, p.nx + H):
            for lj in range(-H, p.ny + H):
                gi, gj = ox + li, oy + lj
                out_i = not (0 <= gi < npx)
                out_j = not (0 <= gj < npx)
                if out_i == out_j:
                    continue  # interior or corner column
                t2, gi2, gj2, _rot = _tile_edge_map(npx, tile, gi, gj)
                assert got[li + H, lj + H] == _scalar_value(t2, gi2, gj2)
