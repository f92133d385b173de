"""SDFG-layer semantic checks: a race detector over expanded kernels.

Where the DSL rules reason about what the user *wrote*, these rules reason
about what the toolchain is *about to execute* — expanded map-scoped
:class:`~repro.sdfg.nodes.Kernel` nodes whose exact per-statement access
ranges are available through the same :class:`~repro.sdfg.subsets.Range`
algebra the memlets use. That makes them the safety net under aggressive
transformations: kernel fusion merges map scopes, and a merge that is
illegal (producer extents not enlarged for a consumer's offset reads, or a
write-after-read hazard pulled inside one map) shows up here as a concrete
overlapping/uncovered range, with the evidence ranges in the message.

Rules:

- ``S201`` kernel-race: a statement reads a container at an offset along a
  map (concurrently executed) dimension while a statement at or after it
  in the same kernel writes an intersecting range — the classic fusion
  race.
- ``S202`` uncovered-read: a read of kernel-local or transient data whose
  required range is not covered by everything written to it up to that
  point; the signature of an illegal producer/consumer fusion.
- ``S203`` out-of-bounds: access ranges versus container shapes, as
  findings (``validate_sdfg`` raises on the first; the linter reports
  all of them).
- ``S204`` transient-read-before-write / ``S205`` dead-transient:
  lifetime errors for toolchain-allocated buffers.

S202, S204 and S205 report what :mod:`repro.sdfg.analysis` computes
(``uncovered_reads`` / ``dead_transients``) — the same records that make
the code generator zero-fill a transient.

Rule catalog and suppression syntax: ``docs/static_analysis.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.dsl.ir import Assign, expr_reads
from repro.sdfg.analysis import (
    KernelStatement,
    access_range,
    axes_of,
    dead_transients,
    kernel_statements,
    uncovered_reads,
)
from repro.sdfg.nodes import Kernel
from repro.lint.findings import LintFinding, register_rules
from repro.util.loc import SourceLocation

#: Rule id -> rule name, the S2xx catalog.
SDFG_RULES = {
    "S201": "kernel-race",
    "S202": "uncovered-read",
    "S203": "out-of-bounds",
    "S204": "transient-read-before-write",
    "S205": "dead-transient",
}

register_rules(SDFG_RULES)

SEQUENTIAL_ORDERS = ("FORWARD", "BACKWARD")


def _loc(kernel: Kernel, stmt: Optional[Assign] = None) -> SourceLocation:
    line = stmt.lineno if stmt is not None else None
    return SourceLocation(kernel.source_file, line)


# ---------------------------------------------------------------------------
# S201: write-after-read races inside one map scope
# ---------------------------------------------------------------------------


def _rule_kernel_race(sdfg, subject, kernel: Kernel) -> Iterable[LintFinding]:
    stmts = kernel_statements(kernel)
    loop_dims = set(kernel.schedule.loop_dims)
    if kernel.order in SEQUENTIAL_ORDERS:
        loop_dims.add("K")  # K is sequential for solvers regardless
    writes_by_name: Dict[str, List[KernelStatement]] = {}
    for s in stmts:
        if s.active:
            writes_by_name.setdefault(s.stmt.target.name, []).append(s)
    for s in stmts:
        if not s.active:
            continue
        for acc in expr_reads(s.stmt):
            di, dj, dk = acc.offset
            concurrent = (di, dj) != (0, 0) or (
                dk != 0 and "K" not in loop_dims
            )
            if not concurrent:
                continue
            read_rng = access_range(sdfg, kernel, acc.name, acc.offset, s.ranges)
            if read_rng is None:
                continue
            for w in writes_by_name.get(acc.name, []):
                if w.idx < s.idx:
                    continue  # RAW: handled by extent coverage (S202)
                write_rng = access_range(
                    sdfg, kernel, acc.name, (0, 0, 0), w.ranges
                )
                if write_rng is None or write_rng.ndim != read_rng.ndim:
                    continue
                overlap = read_rng.intersection(write_rng)
                if overlap is None:
                    continue
                yield LintFinding(
                    rule="S201",
                    name="kernel-race",
                    severity="error",
                    subject=subject,
                    message=(
                        f"{acc.name!r} is read at offset {acc.offset} over "
                        f"{read_rng} while a later statement of the same "
                        f"map scope writes {write_rng} (overlap {overlap}); "
                        "concurrent threads may observe overwritten values"
                    ),
                    location=_loc(kernel, s.stmt),
                    hint=(
                        "keep producer and consumer in separate kernels, or "
                        "stage the pre-update values in a local array"
                    ),
                )
                break


# ---------------------------------------------------------------------------
# S202/S204/S205: transient & local-array lifetimes and extent coverage
# ---------------------------------------------------------------------------


def _rule_lifetimes(sdfg) -> Iterable[LintFinding]:
    """The findings behind :func:`repro.sdfg.analysis.uncovered_reads` —
    the same records that make the code generator zero-fill a transient.
    A read with an excuse (loop-carried, or a callback may have
    initialized the container) is not reported."""
    for read in uncovered_reads(sdfg):
        if read.excuse is not None:
            continue
        kind = "local array" if read.local else "transient"
        subject = f"{sdfg.name}.{read.node.label}"
        if read.written is None:
            yield LintFinding(
                rule="S204",
                name="transient-read-before-write",
                severity="error",
                subject=subject,
                message=(
                    f"{kind} {read.name!r} is read over {read.required} "
                    "but nothing has written it by this point in the "
                    "program"
                ),
                location=_loc(read.node, read.stmt),
                hint="initialize the buffer before this kernel runs",
            )
        else:
            yield LintFinding(
                rule="S202",
                name="uncovered-read",
                severity="error",
                subject=subject,
                message=(
                    f"read of {read.name!r} at offset {read.offset} "
                    f"requires {read.required} but only {read.written} "
                    f"has been written ({read.missing[0]} never is); "
                    "producer extents were not enlarged for this consumer "
                    "(illegal fusion?)"
                ),
                location=_loc(read.node, read.stmt),
                hint=(
                    "recompute extents for the fused kernel, or undo the "
                    "fusion that merged producer and consumer"
                ),
            )
    for name, writer in dead_transients(sdfg):
        yield LintFinding(
            rule="S205",
            name="dead-transient",
            severity="warning",
            subject=f"{sdfg.name}.{writer.label}",
            message=(
                f"transient {name!r} is written but never read by any "
                "node; the buffer and the writes are dead"
            ),
            location=_loc(writer),
            hint="remove the writes or the transient container",
        )


# ---------------------------------------------------------------------------
# S203: access ranges vs container shapes
# ---------------------------------------------------------------------------


def _rule_bounds(sdfg, subject, kernel: Kernel) -> Iterable[LintFinding]:
    reads, writes = kernel.access_subsets(lambda n: axes_of(sdfg, kernel, n))
    for kind, accesses in (("read", reads), ("write", writes)):
        for name, rng in accesses.items():
            desc = sdfg.arrays.get(name)
            if desc is None:
                yield LintFinding(
                    rule="S203",
                    name="out-of-bounds",
                    severity="error",
                    subject=subject,
                    message=f"{kind} of unknown container {name!r}",
                    location=_loc(kernel),
                    hint="add the container to the SDFG before using it",
                )
                continue
            if rng.ndim != len(desc.shape):
                yield LintFinding(
                    rule="S203",
                    name="out-of-bounds",
                    severity="error",
                    subject=subject,
                    message=(
                        f"rank mismatch on {name!r}: access {rng} vs shape "
                        f"{desc.shape}"
                    ),
                    location=_loc(kernel),
                    hint="check the container's axes declaration",
                )
                continue
            for (lo, hi), size in zip(rng.dims, desc.shape):
                if lo < 0 or hi > size:
                    yield LintFinding(
                        rule="S203",
                        name="out-of-bounds",
                        severity="error",
                        subject=subject,
                        message=(
                            f"{kind} range {rng} exceeds container "
                            f"{name!r} shape {desc.shape}"
                        ),
                        location=_loc(kernel),
                        hint=(
                            "grow the halo/allocation or shrink the "
                            "accessed extent"
                        ),
                    )
                    break


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lint_sdfg(sdfg, rules: Optional[Iterable[str]] = None) -> List[LintFinding]:
    """Run every SDFG-layer rule; ``rules`` optionally restricts by id."""
    findings: List[LintFinding] = []
    for state in sdfg.states:
        for node in state.nodes:
            if not isinstance(node, Kernel):
                continue
            subject = f"{sdfg.name}.{node.label}"
            findings.extend(_rule_kernel_race(sdfg, subject, node))
            findings.extend(_rule_bounds(sdfg, subject, node))
    findings.extend(_rule_lifetimes(sdfg))
    if rules is not None:
        allowed = set(rules)
        findings = [f for f in findings if f.rule in allowed]
    return findings
