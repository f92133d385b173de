"""The Python FV3 dynamical core port (Sec. II, IV) and its substrate.

Module layout mirrors the FORTRAN model structure kept by the paper
(Fig. 2): the remapping loop calls tracer advection, the vertical
Lagrangian-to-Eulerian remap and the acoustic-substep loop; the acoustic
loop calls the C-grid solver, the nonhydrostatic vertical Riemann solver
and the D-grid solver, with nonblocking halo exchanges between them.
"""

from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.partitioner import CubedSpherePartitioner

__all__ = [
    "CubedSphereGrid",
    "CubedSpherePartitioner",
    "DynamicalCoreConfig",
]


def __getattr__(name):
    # lazy: the dynamical core pulls in the whole stencil suite
    if name == "DynamicalCore":
        from repro.fv3.dyncore import DynamicalCore

        return DynamicalCore
    raise AttributeError(name)
