"""Scenario registry, reference checks and the initial.py shims."""

import warnings

import numpy as np
import pytest

from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.run import run
from repro.scenarios import (
    Scenario,
    SmoothPerturbation,
    UnknownScenarioError,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.scenarios import base as _base

BUILTINS = (
    "baroclinic_wave",
    "solid_body_rotation",
    "rotated_transport",
    "resting_atmosphere",
)


def _one_grid(npx=12):
    partitioner = CubedSpherePartitioner(npx, 1)
    return CubedSphereGrid.build(partitioner, 0, n_halo=3)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_builtins_are_registered():
    names = available_scenarios()
    for name in BUILTINS:
        assert name in names


def test_get_scenario_passthrough_and_unknown():
    scen = get_scenario("baroclinic_wave")
    assert isinstance(scen, Scenario)
    assert get_scenario(scen) is scen
    with pytest.raises(UnknownScenarioError) as err:
        get_scenario("barclinic_wave")
    assert "baroclinic_wave" in str(err.value)  # names the known ones


def test_register_rejects_duplicates_unless_replace():
    scen = get_scenario("baroclinic_wave")
    with pytest.raises(ValueError, match="already registered"):
        register_scenario(scen)
    dummy = Scenario(
        name="test_dummy", description="dummy", builder=scen.builder
    )
    try:
        register_scenario(dummy)
        assert get_scenario("test_dummy") is dummy
        replacement = Scenario(
            name="test_dummy", description="dummy2", builder=scen.builder
        )
        register_scenario(replacement, replace=True)
        assert get_scenario("test_dummy") is replacement
    finally:
        _base._REGISTRY.pop("test_dummy", None)


def test_default_config_applies_overrides():
    scen = get_scenario("baroclinic_wave")
    cfg = scen.default_config()
    assert isinstance(cfg, DynamicalCoreConfig)
    small = scen.default_config(npx=12, npz=4)
    assert (small.npx, small.npz) == (12, 4)


# ---------------------------------------------------------------------------
# reference checks: every built-in scenario must pass its own checks
# after a short integration at a test-sized resolution
# ---------------------------------------------------------------------------
_TEST_CONFIGS = {
    "baroclinic_wave": dict(npx=12, npz=4, dt_atmos=120.0, n_split=2),
    "solid_body_rotation": {},
    "rotated_transport": {},
    "resting_atmosphere": {},
}


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_scenarios_pass_reference_checks(name):
    scen = get_scenario(name)
    result = run(scen, scen.default_config(**_TEST_CONFIGS[name]), steps=1)
    assert result.ok, result.violations


# ---------------------------------------------------------------------------
# perturbations: the ensemble seeding contract
# ---------------------------------------------------------------------------
def test_control_build_is_unperturbed():
    scen = get_scenario("baroclinic_wave")
    grid = _one_grid()
    cfg = scen.default_config(npx=12, npz=4)
    control = scen.build_state(grid, cfg, rng=None)
    reference = scen.builder(grid, cfg)
    np.testing.assert_array_equal(control.u, reference.u)
    np.testing.assert_array_equal(control.pt, reference.pt)


def test_perturbation_is_deterministic_and_member_specific():
    scen = get_scenario("baroclinic_wave")
    assert isinstance(scen.perturbation, SmoothPerturbation)
    grid = _one_grid()
    cfg = scen.default_config(npx=12, npz=4)
    a = scen.build_state(grid, cfg, np.random.default_rng(11))
    b = scen.build_state(grid, cfg, np.random.default_rng(11))
    c = scen.build_state(grid, cfg, np.random.default_rng(12))
    np.testing.assert_array_equal(a.u, b.u)  # same stream, same state
    assert np.abs(a.u - c.u).max() > 0.0  # different stream differs
    control = scen.build_state(grid, cfg, rng=None)
    # the perturbation is bounded: a small, smooth wind/temperature delta
    assert 0.0 < np.abs(a.u - control.u).max() < 5.0
    assert 0.0 < np.abs(a.pt / control.pt - 1.0).max() < 0.05


# ---------------------------------------------------------------------------
# the DynamicalCore default workload routes through the registry
# ---------------------------------------------------------------------------
def test_dyncore_default_init_is_the_baroclinic_scenario():
    cfg = DynamicalCoreConfig(
        npx=12, npz=4, layout=1, dt_atmos=120.0, k_split=1, n_split=2,
        n_tracers=1,
    )
    default = DynamicalCore(cfg)
    scen = get_scenario("baroclinic_wave")
    explicit = DynamicalCore(cfg, init=scen.initializer())
    for a, b in zip(default.states, explicit.states):
        for f in ("u", "v", "w", "pt", "delp", "delz"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))


# ---------------------------------------------------------------------------
# what repro.fv3.initial still holds
# ---------------------------------------------------------------------------
def test_undeprecated_initial_surface_stays_quiet():
    from repro.fv3.initial import RankFields, reference_coordinate

    cfg = DynamicalCoreConfig(npx=12, npz=4, layout=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        bk, ptop = reference_coordinate(cfg)
    assert bk.shape == (cfg.npz + 1,)
    assert ptop > 0.0
    assert RankFields.__dataclass_fields__  # still the state container
