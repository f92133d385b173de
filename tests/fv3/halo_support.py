"""The whole-world scalar halo update the halo tests drive."""

from repro import obs


def update_scalar(updater, fields):
    """Fill the halos of one scalar field given per-rank arrays, every
    rank on the calling thread (start all, advance all, finish all), as
    ``HaloUpdater.update_vector`` does for a vector field."""
    with obs.get_tracer().span("halo.update_scalar"):
        updater._update((fields,), vector=False)
