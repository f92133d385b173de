"""Model configuration (the namelist analogue).

The configuration drives orchestration-time constant propagation: loop
counts (``k_split``, ``n_split``, tracer count) are compile-time
constants of the built SDFG, as in the paper (Sec. V-B).
"""

from __future__ import annotations

import dataclasses

from repro.fv3 import constants


@dataclasses.dataclass(frozen=True)
class DynamicalCoreConfig:
    """Configuration of the dynamical core.

    Attributes:
        npx: number of cells along one tile edge (a "cN" resolution has
            ``npx = N``).
        npz: number of vertical levels.
        layout: ranks per tile edge (total ranks = 6 * layout**2).
        dt_atmos: physics (outermost) time step [s].
        k_split: remapping sub-steps per physics step.
        n_split: acoustic sub-steps per remapping step.
        n_tracers: number of advected tracer species.
        d2_damp: divergence-damping coefficient (nondimensional).
        smag_coeff: Smagorinsky diffusion coefficient (cs in Sec. VI-C1).
    """

    npx: int = 24
    npz: int = 16
    layout: int = 1
    dt_atmos: float = 225.0
    k_split: int = 2
    n_split: int = 4
    n_tracers: int = 1
    d2_damp: float = 0.15
    smag_coeff: float = 0.2

    def __post_init__(self):
        if self.npx < 4:
            raise ValueError("npx must be at least 4")
        if self.npx % self.layout:
            raise ValueError(
                f"layout {self.layout} does not divide npx {self.npx}"
            )
        if self.npz < 3:
            raise ValueError("npz must be at least 3")
        if (
            self.npx // self.layout < 2 * constants.N_HALO
            and self.layout > 1
        ):
            raise ValueError(
                "subdomain too small for the halo width "
                f"({self.npx // self.layout} < {2 * constants.N_HALO})"
            )

    @property
    def total_ranks(self) -> int:
        return constants.N_TILES * self.layout**2

    @property
    def dt_remap(self) -> float:
        return self.dt_atmos / self.k_split

    @property
    def dt_acoustic(self) -> float:
        return self.dt_remap / self.n_split

    def grid_spacing_km(self) -> float:
        """Approximate horizontal grid spacing at the tile center."""
        import math

        from repro.fv3.constants import RADIUS

        return (0.5 * math.pi * RADIUS / 1000.0) / self.npx
