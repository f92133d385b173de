"""Halo-exchange correctness: continuity, invariance, vector rotation."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.fv3.grid import CubedSphereGrid
from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner

H = 3


def _analytic(lon, lat):
    """A smooth scalar field on the sphere."""
    return np.cos(lat) * np.sin(lon) + 0.5 * np.sin(2 * lat)


def _rank_fields(p, fn):
    """Per-rank (nx+2h, ny+2h) arrays with fn evaluated on interior only."""
    fields = []
    for rank in range(p.total_ranks):
        grid = CubedSphereGrid.build(p, rank, n_halo=H)
        f = np.full(grid.shape, np.nan)
        f[H:-H, H:-H] = fn(grid.lon, grid.lat)[H:-H, H:-H]
        fields.append(f)
    return fields


def test_scalar_halo_matches_analytic_field():
    """After exchange, halo cells hold the neighbor's interior values —
    which equal the analytic field at the halo cell's physical location."""
    p = CubedSpherePartitioner(npx=12, layout=1)
    fields = _rank_fields(p, _analytic)
    HaloUpdater(p, n_halo=H).update_scalar(fields)
    for rank in range(p.total_ranks):
        grid = CubedSphereGrid.build(p, rank, n_halo=H)
        got = fields[rank]
        # x-direction halo rows (interior j): must match the analytic field
        # at the physical (neighbor) location of each halo cell. The halo
        # cell centers of the gnomonic extension differ from the neighbor's
        # cell centers, so compare against the *value exchange* invariant:
        # no NaNs and smoothness across the edge.
        assert not np.isnan(got[:, H:-H]).any()
        assert not np.isnan(got[H:-H, :]).any()
        interior_edge = got[H, H:-H]
        halo_edge = got[H - 1, H:-H]
        assert np.max(np.abs(interior_edge - halo_edge)) < 0.5  # smooth


def test_scalar_halo_interior_neighbors_exact():
    """Same-tile halos are exact copies of neighbor interiors."""
    p = CubedSpherePartitioner(npx=12, layout=2)
    rng = np.random.default_rng(0)
    fields = []
    for rank in range(p.total_ranks):
        f = np.full((p.nx + 2 * H, p.ny + 2 * H), np.nan)
        f[H:-H, H:-H] = rng.random((p.nx, p.ny)) + rank
        fields.append(f)
    HaloUpdater(p, n_halo=H).update_scalar(fields)
    # rank (0,0) of tile 0 and its east neighbor (1,0)
    r00 = p.rank_at(0, 0, 0)
    r10 = p.rank_at(0, 1, 0)
    np.testing.assert_array_equal(
        fields[r00][-H:, H:-H], fields[r10][H : 2 * H, H:-H]
    )
    np.testing.assert_array_equal(
        fields[r10][:H, H:-H], fields[r00][-2 * H : -H, H:-H]
    )


def test_decomposition_invariance():
    """6 ranks vs 24 ranks: the same global cells get identical values
    everywhere, including halos at tile edges and corners."""
    npx = 12

    def global_index_field(p, rank):
        ox, oy = p.subdomain_origin(rank)
        tile = p.tile_of(rank)
        f = np.full((p.nx + 2 * H, p.ny + 2 * H), np.nan)
        ii = np.arange(ox, ox + p.nx)[:, None]
        jj = np.arange(oy, oy + p.ny)[None, :]
        f[H:-H, H:-H] = tile * 10000 + ii * 100 + jj
        return f

    results = {}
    for layout in (1, 2):
        p = CubedSpherePartitioner(npx=npx, layout=layout)
        fields = [global_index_field(p, r) for r in range(p.total_ranks)]
        HaloUpdater(p, n_halo=H).update_scalar(fields)
        # reassemble each tile's extended view from rank (0,0) of the tile
        # ... compare PER-GLOBAL-CELL values (interior + halo of the tile)
        tile0_ranks = [r for r in range(p.total_ranks) if p.tile_of(r) == 0]
        per_cell = {}
        for r in tile0_ranks:
            ox, oy = p.subdomain_origin(r)
            f = fields[r]
            for i in range(-H, p.nx + H):
                for j in range(-H, p.ny + H):
                    per_cell[(ox + i, oy + j)] = f[i + H, j + H]
        results[layout] = per_cell

    common = set(results[1]) & set(results[2])
    assert common  # plenty of overlapping cells (incl. tile-edge halos)
    for cell in common:
        a, b = results[1][cell], results[2][cell]
        assert a == b or (np.isnan(a) and np.isnan(b)), f"mismatch at {cell}"


def test_three_d_fields_supported():
    p = CubedSpherePartitioner(npx=8, layout=1)
    nk = 5
    fields = []
    for rank in range(p.total_ranks):
        f = np.zeros((8 + 2 * H, 8 + 2 * H, nk))
        f[H:-H, H:-H, :] = rank + np.arange(nk)[None, None, :]
        fields.append(f)
    HaloUpdater(p, n_halo=H).update_scalar(fields)
    # k structure preserved in halos
    f0 = fields[0]
    diffs = f0[0, H:-H, :] - f0[0, H:-H, :1]
    np.testing.assert_array_equal(
        diffs, np.broadcast_to(np.arange(nk, dtype=float), diffs.shape)
    )


def test_vector_rotation_consistency():
    """A vector field defined globally in each tile's index basis must be
    transformed by the seam rotation; rotating back must recover it."""
    p = CubedSpherePartitioner(npx=8, layout=1)
    u = []
    v = []
    for rank in range(p.total_ranks):
        shape = (8 + 2 * H, 8 + 2 * H)
        uu = np.full(shape, np.nan)
        vv = np.full(shape, np.nan)
        uu[H:-H, H:-H] = 1.0  # unit vector along +x in every tile frame
        vv[H:-H, H:-H] = 0.0
        u.append(uu)
        v.append(vv)
    HaloUpdater(p, n_halo=H).update_vector(u, v)
    for rank in range(p.total_ranks):
        mag = np.hypot(u[rank], v[rank])
        # rotation preserves magnitude everywhere (no NaNs in halo rows)
        assert not np.isnan(mag[:, H:-H]).any()
        np.testing.assert_allclose(mag[:, H:-H], 1.0)
        # components remain axis-aligned after 90°-multiple rotations
        prod = u[rank][:, H:-H] * v[rank][:, H:-H]
        np.testing.assert_allclose(prod, 0.0, atol=1e-15)


def test_message_log_records_exchange():
    p = CubedSpherePartitioner(npx=8, layout=1)
    updater = HaloUpdater(p, n_halo=H)
    fields = [np.zeros((8 + 2 * H, 8 + 2 * H)) for _ in range(6)]
    updater.comm.reset_log()
    updater.update_scalar(fields)
    sizes = updater.comm.message_sizes(rank=0)
    assert sizes  # rank 0 sent something
    by_rank = updater.comm.bytes_by_rank()
    assert set(by_rank) == set(range(6))
    # symmetric topology: all ranks send the same volume
    assert len(set(by_rank.values())) == 1


def test_shape_validation():
    p = CubedSpherePartitioner(npx=8, layout=1)
    updater = HaloUpdater(p, n_halo=H)
    with pytest.raises(ValueError):
        updater.update_scalar([np.zeros((4, 4))] * 6)
    with pytest.raises(ValueError):
        updater.update_scalar([np.zeros((14, 14))] * 5)


def test_an_exchange_leaves_nothing_allocated_behind():
    """Messages are packed into storage the mailbox owns and unpacked
    from the payload the receiver took: from its first update on, an
    updater allocates nothing that outlives the exchange. (A second
    updater warms what outlives both: the buffer pool the seam rotations
    draw from, and the mailbox's table of message keys.)"""
    p = CubedSpherePartitioner(npx=8, layout=1)
    warm = HaloUpdater(p, n_halo=H)
    updater = HaloUpdater(p, n_halo=H, comm=warm.comm)
    rng = np.random.default_rng(0)
    fields = [rng.random((8 + 2 * H, 8 + 2 * H, 2)) for _ in range(6)]
    u = [rng.random((8 + 2 * H, 8 + 2 * H, 2)) for _ in range(6)]
    v = [rng.random((8 + 2 * H, 8 + 2 * H, 2)) for _ in range(6)]
    only_halo = [tracemalloc.Filter(True, "*/fv3/halo.py")]
    warm.update_scalar([f.copy() for f in fields])
    warm.update_vector([f.copy() for f in u], [f.copy() for f in v])
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_halo)
        updater.update_scalar(fields)
        updater.update_vector(u, v)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_halo)
    finally:
        tracemalloc.stop()
    assert not [
        stat for stat in after.compare_to(before, "lineno")
        if stat.size_diff > 0
    ]
    assert updater.comm.mailbox.pending_keys() == []


def test_exchange_buffers_rebuilt_on_field_rank_change():
    """The same updater serves 2D and 3D fields: payloads take the
    trailing shape of what they carry, and results stay correct."""
    p = CubedSpherePartitioner(npx=8, layout=1)
    updater = HaloUpdater(p, n_halo=H)
    rng = np.random.default_rng(1)
    f2 = [rng.random((8 + 2 * H, 8 + 2 * H)) for _ in range(p.total_ranks)]
    f3 = [rng.random((8 + 2 * H, 8 + 2 * H, 4)) for _ in range(p.total_ranks)]
    ref2 = [f.copy() for f in f2]
    ref3 = [f.copy() for f in f3]
    fresh = HaloUpdater(p, n_halo=H)
    fresh.update_scalar(ref2)
    HaloUpdater(p, n_halo=H).update_scalar(ref3)
    updater.update_scalar(f2)
    updater.update_scalar(f3)
    for got, want in zip(f2, ref2):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(f3, ref3):
        np.testing.assert_array_equal(got, want)


def test_noncontiguous_fields_fall_back_to_fancy_gather():
    """A transposed (non-contiguous) field must still exchange correctly
    through the slow-path gather."""
    p = CubedSpherePartitioner(npx=8, layout=1)
    rng = np.random.default_rng(2)
    base = [rng.random((8 + 2 * H, 8 + 2 * H)) for _ in range(p.total_ranks)]
    ref = [f.copy() for f in base]
    HaloUpdater(p, n_halo=H).update_scalar(ref)
    weird = [np.asfortranarray(f) for f in base]
    assert not weird[0].flags["C_CONTIGUOUS"]
    HaloUpdater(p, n_halo=H).update_scalar(weird)
    for got, want in zip(weird, ref):
        np.testing.assert_array_equal(got, want)


class _UnpackFault(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 6], ids=["sequential", "threads"])
def test_a_rotation_that_raises_returns_its_scratch(monkeypatch, workers):
    """The seam rotation's scratch strip goes back when an unpack
    raises: every rank fails at its first rotated unpack (it has taken
    its messages by then, so no rank waits on a peer), and the step
    leaves every compute slot's worker at depth 0 and no take live, on
    the calling thread and on rank threads alike."""
    import threading

    from repro.fv3 import halo
    from repro.fv3.config import DynamicalCoreConfig
    from repro.fv3.dyncore import DynamicalCore
    from repro.runtime import get_pool, ranks

    rotating = threading.local()
    rotate, scatter = HaloUpdater._rotate, halo._scatter

    def marked_rotate(fields, rotated):
        rotating.on = True
        try:
            return rotate(fields, rotated)
        finally:
            rotating.on = False

    def failing_scatter(field, plan, values):
        if getattr(rotating, "on", False):
            raise _UnpackFault("unpack failed")
        scatter(field, plan, values)

    cfg = DynamicalCoreConfig(npx=12, npz=3, layout=1, n_split=2,
                              n_tracers=1)
    ex = ranks.RankExecutor(workers)
    try:
        core = DynamicalCore(cfg, executor=ex)
        core.prepare()
        monkeypatch.setattr(HaloUpdater, "_rotate",
                            staticmethod(marked_rotate))
        monkeypatch.setattr(halo, "_scatter", failing_scatter)
        with pytest.raises(_UnpackFault):
            core.step_dynamics()
    finally:
        ex.shutdown()
    assert [worker.depth for worker in ex.scratch] == [0] * workers
    assert get_pool().stats()["live_bytes"] == 0
