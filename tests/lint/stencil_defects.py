"""Seeded-defect stencils for the lint test-suite (not collected by pytest).

Each defect line carries a ``MARK:`` comment; tests locate expected line
numbers by searching for the marker, so editing this file does not break
location assertions. This module is also the CLI test target: linting it
must exit nonzero with the expected rule ids.
"""

from repro.dsl import BACKWARD, FORWARD, Field, PARALLEL, computation, interval, stencil


@stencil
def future_read(a: Field, out: Field):
    with computation(FORWARD), interval(...):
        tmp = a * 2.0
        out = tmp[0, 0, 1] + a  # MARK:D101


@stencil
def backward_future_read(a: Field, out: Field):
    with computation(BACKWARD), interval(...):
        tmp = a * 2.0
        out = tmp[0, 0, -1] + a  # MARK:D101-backward


@stencil
def war_race(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = a[1, 0, 0]  # MARK:D105
        a = out * 2.0


@stencil
def self_race(a: Field, out: Field):
    with computation(PARALLEL), interval(...):
        out = out[-1, 0, 0] + a  # MARK:D105-self


@stencil
def interval_gap(a: Field, out: Field):
    with computation(FORWARD):
        with interval(0, 1):
            out = a
        with interval(2, None):
            out = a + out[0, 0, -1]  # MARK:D103


@stencil
def interval_overlap(a: Field, out: Field):
    with computation(PARALLEL):
        with interval(0, 2):
            out = a
        with interval(1, None):
            out = a * 2.0  # MARK:D102


@stencil
def dead_and_unused(a: Field, out: Field, unused: Field):  # MARK:D107
    with computation(PARALLEL), interval(...):
        dead = a * 3.0  # MARK:D106
        out = a


@stencil
def producer(a: Field, t: Field):
    """Healthy producer half of the graph-defect fixtures."""
    with computation(PARALLEL), interval(...):
        t = a * 2.0


@stencil
def consumer(t: Field, out: Field):
    """Healthy consumer half of the graph-defect fixtures."""
    with computation(PARALLEL), interval(...):
        out = t[-1, 0, 0] + t[1, 0, 0]  # MARK:consumer-read


@stencil
def chained(a: Field, out: Field):
    """Healthy two-computation chain: extent inference enlarges the
    producer so the consumer's offset reads are covered."""
    with computation(PARALLEL), interval(...):
        t = a * 2.0
    with computation(PARALLEL), interval(...):
        out = t[-1, 0, 0] + t[1, 0, 0]  # MARK:chained-read


@stencil
def carried_solver(q: Field, out: Field):
    """Healthy FORWARD solver: the carried read must produce no finding."""
    with computation(FORWARD):
        with interval(0, 1):
            out = q
        with interval(1, None):
            out = 0.5 * (out[0, 0, -1] + q)
