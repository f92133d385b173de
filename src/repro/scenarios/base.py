"""Scenario abstraction and registry.

A :class:`Scenario` bundles everything needed to launch a model
experiment: a named initial-condition builder, suggested configuration
defaults, a perturbation recipe for ensemble members, and a set of
reference checks that validate the produced state (and, after stepping,
the run) against known physics. Scenarios live in a process-wide
registry keyed by name — the experiment facade (:mod:`repro.run`)
resolves ``run("baroclinic_wave", ...)`` through :func:`get_scenario`,
exactly like stencil backends resolve through
:mod:`repro.dsl.backends`.

The ensemble seeding contract: a scenario's builder receives an
optional :class:`numpy.random.Generator`. ``rng=None`` (or member 0,
the control) builds the unperturbed reference state; a generator —
spawned per member from one root :class:`numpy.random.SeedSequence` by
the driver — drives the scenario's :class:`Perturbation` recipe and
nothing else, so a member's state depends only on (root seed, member
id), never on how many members run alongside it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.grid import CubedSphereGrid

__all__ = [
    "Perturbation",
    "Scenario",
    "UnknownScenarioError",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
]


class UnknownScenarioError(KeyError):
    """Raised when a scenario name is not in the registry."""

    def __init__(self, name: str, known: Sequence[str]):
        super().__init__(name)
        self.name = name
        self.known = tuple(known)

    def __str__(self) -> str:
        return (
            f"unknown scenario {self.name!r}; registered: "
            f"{', '.join(self.known) or '(none)'}"
        )


class Perturbation:
    """Base ensemble perturbation recipe: a subclass's ``apply(state,
    grid, rng)`` mutates a built state in place.

    Recipes draw exclusively from the member's generator, so the
    perturbed state is a pure function of (root seed, member id). The
    builder calls ``apply`` once per rank, in rank order.
    """


@dataclasses.dataclass(frozen=True)
class SmoothPerturbation(Perturbation):
    """Smooth low-wavenumber wind + temperature noise.

    Adds ``n_modes`` random-phase zonal harmonics (tapered by cos φ so
    the poles stay clean) to the local wind components and a relative
    temperature ripple — smooth fields, so the perturbed state remains
    dynamically admissible rather than grid-scale noise.
    """

    wind_amplitude: float = 0.5  # m/s
    theta_amplitude: float = 1e-3  # relative pt perturbation
    n_modes: int = 3

    def apply(self, state, grid, rng: np.random.Generator) -> None:
        lon, lat = grid.lon, grid.lat
        du = np.zeros(lon.shape)
        dv = np.zeros(lon.shape)
        dt = np.zeros(lon.shape)
        for m in range(1, self.n_modes + 1):
            pu, pv, pt_ = rng.uniform(0.0, 2.0 * np.pi, size=3)
            au, av, at = rng.standard_normal(3) / self.n_modes
            carrier = np.cos(lat)
            du += au * np.sin(m * lon + pu) * carrier
            dv += av * np.sin(m * lon + pv) * carrier
            dt += at * np.cos(m * lon + pt_) * carrier
        state.u += self.wind_amplitude * du[..., None]
        state.v += self.wind_amplitude * dv[..., None]
        state.pt *= 1.0 + self.theta_amplitude * dt[..., None]


#: a reference check: (core, steps_taken) -> list of violation strings
Check = Callable[[object, int], List[str]]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named, reference-checked experiment definition.

    Attributes:
        name: registry key.
        description: one-line human description.
        builder: ``(grid, config) -> RankFields`` unperturbed state
            builder for one rank.
        config_defaults: keyword overrides applied on top of
            :class:`DynamicalCoreConfig` defaults by
            :meth:`default_config`.
        checks: reference checks run by :meth:`reference_check`; each
            receives ``(core, steps_taken)`` and returns violation
            strings (empty = pass).
        perturbation: ensemble recipe applied to members with an RNG
            (``None`` disables ensemble spread for this scenario).
        mass_drift_tol: allowed relative drift of Σ δp·area over a run
            (``None`` skips the driver's conservation check).
        tracer_drift_tol: allowed relative drift of the tracer mass.
    """

    name: str
    description: str
    builder: Callable
    config_defaults: Mapping[str, object] = dataclasses.field(
        default_factory=dict
    )
    checks: Tuple[Check, ...] = ()
    perturbation: Optional[Perturbation] = None
    mass_drift_tol: Optional[float] = None
    tracer_drift_tol: Optional[float] = None

    def default_config(self, **overrides) -> DynamicalCoreConfig:
        """The scenario's suggested configuration (overridable)."""
        merged = dict(self.config_defaults)
        merged.update(overrides)
        return DynamicalCoreConfig(**merged)

    def build_state(self, grid, config, rng: Optional[np.random.Generator]
                    = None):
        """Build one rank's state; an RNG applies the perturbation."""
        state = self.builder(grid, config)
        if rng is not None and self.perturbation is not None:
            self.perturbation.apply(state, grid, rng)
        return state

    def initializer(self, rng: Optional[np.random.Generator] = None):
        """An ``init(grid, config)`` adapter for ``DynamicalCore``, which
        calls it for the ranks the core holds, in rank order.

        A perturbed member draws from one stream across *all* ranks in
        rank order, so its rank-r state depends on the draws of ranks
        0..r-1. Asked for a rank past the next one, the adapter first
        replays the ranks it skipped: each one's grid and state exist
        only while the stream is advanced past it. A core that holds a
        block of ranks (a rank worker process) thus gets exactly the
        states a core holding every rank has there."""
        following = 0  # the rank whose draws come next

        def init(grid, config):
            nonlocal following
            if rng is not None and self.perturbation is not None:
                for rank in range(following, grid.rank):
                    skipped = CubedSphereGrid.build(
                        grid.partitioner, rank, n_halo=grid.n_halo
                    )
                    self.build_state(skipped, config, rng)
                following = max(following, grid.rank + 1)
            return self.build_state(grid, config, rng)

        return init

    def reference_check(self, core, steps: int = 0) -> List[str]:
        """Run every check; returns the list of violations (empty=OK)."""
        violations: List[str] = []
        for check in self.checks:
            violations.extend(check(core, steps))
        return violations


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry; a name is registered once."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name_or_scenario) -> Scenario:
    """Resolve a scenario by name (a ``Scenario`` passes through)."""
    if isinstance(name_or_scenario, Scenario):
        return name_or_scenario
    name = str(name_or_scenario)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, sorted(_REGISTRY)) from None


def available_scenarios() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(_REGISTRY)
