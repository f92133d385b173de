"""Built-in scenarios: the paper's test cases plus new variants.

Each scenario's state builder is the single source of truth for its
initial conditions (:mod:`repro.fv3.initial` holds only the per-rank
state container and the vertical reference coordinate they build on).
Every scenario carries reference checks (physical bounds, conservation tolerances) that the
experiment facade runs after stepping.
"""

from __future__ import annotations

import numpy as np

from repro.fv3 import constants
from repro.fv3.config import DynamicalCoreConfig  # noqa: F401 — re-export
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.initial import RankFields, reference_coordinate
from repro.scenarios.base import (
    Scenario,
    SmoothPerturbation,
    register_scenario,
)

__all__ = [
    "BAROCLINIC_WAVE",
    "RESTING_ATMOSPHERE",
    "ROTATED_TRANSPORT",
    "SOLID_BODY_ROTATION",
    "baroclinic_state",
    "gaussian_tracer",
    "solid_body_rotation_winds",
]

#: jet parameters (Ullrich et al. scaled down for the coarse demo grids)
U_JET = 35.0  # m/s
T_SURFACE = 300.0  # K
LAPSE_FRACTION = 0.18  # fractional temperature drop top-to-bottom
PERTURBATION_U = 1.0  # m/s
PERT_LON = np.pi / 9.0
PERT_LAT = 2.0 * np.pi / 9.0
PERT_WIDTH = 0.2  # rad


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def _uniform_pressure(grid: CubedSphereGrid, config: DynamicalCoreConfig,
                      ptop: float = 100.0):
    """(delp, p_mid, sigma_mid) of a horizontally uniform sigma column."""
    nk = config.npz
    bk, _ = reference_coordinate(config, ptop)
    ps = constants.P_REF
    pe = ptop + bk[None, None, :] * (ps - ptop)
    delp = np.broadcast_to(
        np.diff(pe, axis=-1), grid.shape + (nk,)
    ).copy()
    p_mid = 0.5 * (pe[..., :-1] + pe[..., 1:])
    sigma_mid = (p_mid - ptop) / (ps - ptop)
    return delp, p_mid, sigma_mid


def _hydrostatic_delz(pt, delp, p_mid):
    """δz < 0 by FV3 convention."""
    return -constants.RDGAS * pt * delp / (constants.GRAV * p_mid)


def solid_body_rotation_winds(
    grid: CubedSphereGrid, nk: int, u0: float = 40.0, angle: float = 0.0
):
    """Winds of solid-body rotation (Williamson test 1), for transport
    tests: u_east = u0 (cos φ cos α + sin φ cos λ sin α)."""
    lon, lat = grid.lon, grid.lat
    u_east = u0 * (
        np.cos(lat) * np.cos(angle)
        + np.sin(lat) * np.cos(lon) * np.sin(angle)
    )
    v_north = -u0 * np.sin(lon) * np.sin(angle)
    u = np.zeros(grid.shape + (nk,))
    v = np.zeros(grid.shape + (nk,))
    for k in range(nk):
        u[..., k], v[..., k] = grid.wind_to_local(u_east, v_north)
    return u, v


def gaussian_tracer(grid: CubedSphereGrid, nk: int, lon0=0.0, lat0=0.0,
                    width=0.35) -> np.ndarray:
    """A smooth blob for advection tests (great-circle distance based)."""
    lon, lat = grid.lon, grid.lat
    cosd = np.sin(lat0) * np.sin(lat) + np.cos(lat0) * np.cos(lat) * np.cos(
        lon - lon0
    )
    dist = np.arccos(np.clip(cosd, -1.0, 1.0))
    blob = np.exp(-((dist / width) ** 2))
    return np.repeat(blob[..., None], nk, axis=-1)


# ---------------------------------------------------------------------------
# state builders
# ---------------------------------------------------------------------------


def baroclinic_state(
    grid: CubedSphereGrid, config: DynamicalCoreConfig, ptop: float = 100.0
) -> RankFields:
    """The perturbed zonal-jet initial state (paper Sec. IX) on one rank."""
    nk = config.npz
    shape3 = grid.shape + (nk,)
    lon, lat = grid.lon, grid.lat

    delp, p_mid, sigma_mid = _uniform_pressure(grid, config, ptop)

    # temperature: warm surface, cooler aloft, meridional gradient
    t_profile = T_SURFACE * (1.0 - LAPSE_FRACTION * (1.0 - sigma_mid))
    pt = t_profile * (1.0 - 0.1 * np.sin(lat[..., None]) ** 2)

    # zonal jet peaked at mid-latitudes and at upper levels
    u_east = (
        U_JET
        * np.sin(2.0 * np.abs(lat[..., None])) ** 2
        * np.cos(0.5 * np.pi * sigma_mid)
    )
    # localized wind perturbation (the instability trigger)
    r2 = (lon[..., None] - PERT_LON) ** 2 + (lat[..., None] - PERT_LAT) ** 2
    u_east = u_east + PERTURBATION_U * np.exp(-r2 / PERT_WIDTH**2)
    v_north = np.zeros(shape3)

    u = np.zeros(shape3)
    v = np.zeros(shape3)
    for k in range(nk):
        u[..., k], v[..., k] = grid.wind_to_local(
            u_east[..., k], v_north[..., k]
        )

    delz = _hydrostatic_delz(pt, delp, p_mid)
    w = np.zeros(shape3)

    tracers = []
    for n in range(config.n_tracers):
        blob_lon = PERT_LON + n * 0.5
        r2t = (lon[..., None] - blob_lon) ** 2 + (lat[..., None]) ** 2
        tracers.append(np.exp(-r2t / 0.5**2) * np.ones(shape3))
    return RankFields(
        u=u, v=v, w=w, pt=pt, delp=delp, delz=delz, tracers=tracers
    )


def _solid_body_state(grid, config, u0: float = 40.0, angle: float = 0.0,
                      width: float = 0.4) -> RankFields:
    """Rigid-rotation winds advecting Gaussian tracer blobs."""
    nk = config.npz
    u, v = solid_body_rotation_winds(grid, nk, u0=u0, angle=angle)
    delp, p_mid, _ = _uniform_pressure(grid, config)
    pt = np.full(grid.shape + (nk,), 280.0)
    delz = _hydrostatic_delz(pt, delp, p_mid)
    tracers = [
        gaussian_tracer(grid, nk, lon0=n * 0.5, lat0=0.0, width=width)
        for n in range(config.n_tracers)
    ]
    return RankFields(
        u=u, v=v, w=np.zeros_like(pt), pt=pt, delp=delp, delz=delz,
        tracers=tracers,
    )


def solid_body_state(grid, config) -> RankFields:
    return _solid_body_state(grid, config, u0=40.0, angle=0.0)


def rotated_transport_state(grid, config) -> RankFields:
    """Rotation axis tilted 45° — the flow crosses tile seams and
    corners instead of following the equatorial tile band."""
    return _solid_body_state(grid, config, u0=40.0, angle=np.pi / 4.0)


def resting_state(grid, config) -> RankFields:
    """An isothermal atmosphere at rest: the discrete steady state.

    Uniform temperature and sigma-level pressures mean every horizontal
    gradient is identically zero, so the dynamics should keep the state
    at rest to rounding — any spurious wind the solver generates is a
    discretization bug this scenario's checks catch.
    """
    nk = config.npz
    delp, p_mid, _ = _uniform_pressure(grid, config)
    pt = np.full(grid.shape + (nk,), 280.0)
    delz = _hydrostatic_delz(pt, delp, p_mid)
    zeros = np.zeros(grid.shape + (nk,))
    tracers = [
        gaussian_tracer(grid, nk, lon0=n * 0.5, lat0=0.3, width=0.5)
        for n in range(config.n_tracers)
    ]
    return RankFields(
        u=zeros.copy(), v=zeros.copy(), w=zeros.copy(), pt=pt, delp=delp,
        delz=delz, tracers=tracers,
    )


# ---------------------------------------------------------------------------
# reference checks
# ---------------------------------------------------------------------------


def _check_finite_and_physical(core, steps) -> list:
    out = []
    for r, state in enumerate(core.states):
        if not np.all(np.isfinite(state.pt)):
            out.append(f"rank {r}: non-finite pt")
        if not np.all(state.delp > 0):
            out.append(f"rank {r}: non-positive delp")
        if not np.all(state.delz < 0):
            out.append(f"rank {r}: non-negative delz")
    return out


def _check_wind_bounds(limit):
    def check(core, steps) -> list:
        vmax = core.max_wind()
        if not np.isfinite(vmax) or vmax > limit:
            return [f"max wind {vmax:.2f} m/s exceeds {limit:.1f} m/s"]
        return []

    return check


def _check_initial_jet(core, steps) -> list:
    if steps:
        return []
    vmax = core.max_wind()
    if not 30.0 < vmax < 45.0:
        return [f"initial jet {vmax:.2f} m/s outside (30, 45) m/s"]
    return []


def _check_tracer_monotone(core, steps) -> list:
    """The monotone transport scheme must not under/overshoot [0, 1]."""
    out = []
    h = core.h
    for r, state in enumerate(core.states):
        for t, tr in enumerate(state.tracers):
            interior = tr[h:-h, h:-h]
            if interior.min() < -0.02 or interior.max() > 1.1:
                out.append(
                    f"rank {r} tracer {t} outside bounds "
                    f"[{interior.min():.3f}, {interior.max():.3f}]"
                )
    return out


def _check_stays_at_rest(core, steps) -> list:
    """Resting atmosphere: no spurious circulation may develop."""
    vmax = core.max_wind()
    wmax = max(
        float(np.max(np.abs(s.w[core.h:-core.h, core.h:-core.h])))
        for s in core.states
    )
    out = []
    if vmax > 0.5:
        out.append(f"spurious wind {vmax:.3f} m/s in resting atmosphere")
    if wmax > 0.1:
        out.append(f"spurious w {wmax:.4f} m/s in resting atmosphere")
    return out


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

BAROCLINIC_WAVE = register_scenario(Scenario(
    name="baroclinic_wave",
    description="Perturbed mid-latitude zonal jet (paper Sec. IX; "
                "Ullrich et al. 2014, simplified)",
    builder=baroclinic_state,
    config_defaults=dict(
        npx=24, npz=10, layout=1, dt_atmos=180.0, k_split=1, n_split=3,
        n_tracers=1,
    ),
    checks=(_check_finite_and_physical, _check_initial_jet,
            _check_wind_bounds(100.0)),
    perturbation=SmoothPerturbation(wind_amplitude=0.5,
                                    theta_amplitude=1e-3),
    mass_drift_tol=1e-9,
    tracer_drift_tol=1e-6,
))

SOLID_BODY_ROTATION = register_scenario(Scenario(
    name="solid_body_rotation",
    description="Williamson test 1: Gaussian tracer in rigid rotation "
                "along the equator",
    builder=solid_body_state,
    config_defaults=dict(
        npx=16, npz=3, layout=1, dt_atmos=1200.0, k_split=1, n_split=3,
        n_tracers=1, d2_damp=0.0, smag_coeff=0.0,
    ),
    checks=(_check_finite_and_physical, _check_tracer_monotone,
            _check_wind_bounds(60.0)),
    perturbation=SmoothPerturbation(wind_amplitude=0.2,
                                    theta_amplitude=0.0),
    mass_drift_tol=1e-7,
    tracer_drift_tol=2e-5,
))

ROTATED_TRANSPORT = register_scenario(Scenario(
    name="rotated_transport",
    description="Solid-body rotation tilted 45°: the tracer crosses "
                "tile seams and corners",
    builder=rotated_transport_state,
    config_defaults=dict(
        npx=16, npz=3, layout=1, dt_atmos=1200.0, k_split=1, n_split=3,
        n_tracers=1, d2_damp=0.0, smag_coeff=0.0,
    ),
    checks=(_check_finite_and_physical, _check_tracer_monotone,
            _check_wind_bounds(60.0)),
    perturbation=SmoothPerturbation(wind_amplitude=0.2,
                                    theta_amplitude=0.0),
    mass_drift_tol=1e-7,
    tracer_drift_tol=2e-5,
))

RESTING_ATMOSPHERE = register_scenario(Scenario(
    name="resting_atmosphere",
    description="Isothermal atmosphere at rest: the discrete steady "
                "state must stay steady",
    builder=resting_state,
    config_defaults=dict(
        npx=12, npz=4, layout=1, dt_atmos=300.0, k_split=1, n_split=2,
        n_tracers=1,
    ),
    checks=(_check_finite_and_physical, _check_stays_at_rest),
    perturbation=SmoothPerturbation(wind_amplitude=0.05,
                                    theta_amplitude=1e-4),
    mass_drift_tol=1e-11,
    tracer_drift_tol=1e-9,
))
