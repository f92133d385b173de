"""Initial conditions: the per-rank state container and the vertical
reference coordinate.

State *construction* lives in the scenario registry
(:mod:`repro.scenarios`): every initial-condition generator is a named,
reference-checked :class:`~repro.scenarios.Scenario`, and runs are
launched through the :mod:`repro.run` facade.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np


@dataclasses.dataclass
class RankFields:
    """Prognostic state of one rank (arrays include halos)."""

    u: np.ndarray  # local-x wind component [m/s]
    v: np.ndarray  # local-y wind component [m/s]
    w: np.ndarray  # vertical velocity [m/s]
    pt: np.ndarray  # temperature [K]
    delp: np.ndarray  # layer pressure thickness [Pa]
    delz: np.ndarray  # layer height thickness [m], negative
    tracers: List[np.ndarray]


def reference_coordinate(config, ptop: float = 100.0):
    """Hybrid coefficients: pure sigma levels (bk from 0 to 1)."""
    nk = config.npz
    bk = np.linspace(0.0, 1.0, nk + 1)
    return bk, ptop
