"""Elementary stencils: the bandwidth-test copy and the flux-form update."""

from repro.dsl import Field, FieldIJ, PARALLEL, computation, interval, stencil


@stencil
def copy_stencil(q_in: Field, q_out: Field):
    """The Sec. VIII-A bandwidth probe: one input, one output."""
    with computation(PARALLEL), interval(...):
        q_out = q_in


@stencil
def flux_divergence(q: Field, fx: Field, fy: Field, rarea: FieldIJ):
    """q += div(F): the conservative flux-form update.

    ``fx``/``fy`` hold fluxes at the left/south interface of each cell.
    """
    with computation(PARALLEL), interval(...):
        q = q + (fx - fx[1, 0, 0] + fy - fy[0, 1, 0]) * rarea
