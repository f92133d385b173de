"""DSL-layer semantic checks on :class:`~repro.dsl.ir.StencilDef`.

The rules model the paper's execution mapping (Sec. V-A, VI-A1): every
``computation`` block expands into one map scope whose statements run per
grid point in order, with read-after-write offset dependencies legalized
by the extent machinery (producers are redundantly computed over enlarged
domains). Under that model:

- a read at a nonzero offset along a concurrently-executed axis (I/J
  always; K in ``PARALLEL`` computations) of a field written *at or after*
  the reading statement is a data race — no extent can resurrect an
  overwritten value (``D105``);
- a temporary read before any write is uninitialized memory (``D101``);
- vertical interval blocks that overlap (double write) or leave coverage
  gaps for the same field are suspicious (``D102``/``D103``);
- recorded extents that disagree with what the offsets imply mean halo
  sizes were decided from stale information (``D104``);
- dead stores and unused parameters are productivity smells
  (``D106``/``D107``).

Rule catalog: ``docs/static_analysis.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dsl.extents import StencilExtents, compute_extents
from repro.dsl.ir import (
    Assign,
    AxisBound,
    FieldAccess,
    Interval,
    ScalarRef,
    StencilDef,
    walk_expr,
)
from repro.lint.findings import LintFinding, register_rules
from repro.util.loc import SourceLocation

#: Rule id -> rule name, the D1xx catalog.
DSL_RULES = {
    "D101": "read-before-write",
    "D102": "interval-overlap",
    "D103": "interval-gap",
    "D104": "extent-mismatch",
    "D105": "parallel-race",
    "D106": "dead-store",
    "D107": "unused-parameter",
}

register_rules(DSL_RULES)

#: Axes executed concurrently for a given iteration policy: horizontal
#: dimensions are always map dimensions; K joins them in PARALLEL blocks.
SEQUENTIAL_ORDERS = ("FORWARD", "BACKWARD")


@dataclasses.dataclass(frozen=True)
class _Stmt:
    """One flattened statement with its position and vertical context."""

    gidx: int  # global flattened index in the stencil
    comp_idx: int
    order: str
    block_idx: int
    interval: Interval
    stmt: Assign


def _flatten(defn: StencilDef) -> List[_Stmt]:
    out: List[_Stmt] = []
    g = 0
    for ci, comp in enumerate(defn.computations):
        for bi, block in enumerate(comp.intervals):
            for stmt in block.body:
                out.append(_Stmt(g, ci, comp.order, bi, block.interval, stmt))
                g += 1
    return out


def _explicit_reads(stmt: Assign) -> List[FieldAccess]:
    """Field reads in value and mask, *without* the implicit masked-target
    read (a masked first write of a temporary is a write, not a use)."""
    reads = [n for n in walk_expr(stmt.value) if isinstance(n, FieldAccess)]
    if stmt.mask is not None:
        reads += [n for n in walk_expr(stmt.mask) if isinstance(n, FieldAccess)]
    return reads


def _all_reads(stmt: Assign) -> List[FieldAccess]:
    """Reads including the implicit target read of masked assignments."""
    reads = _explicit_reads(stmt)
    if stmt.mask is not None:
        reads.append(stmt.target)
    return reads


def _loc(defn: StencilDef, stmt: Optional[Assign] = None) -> SourceLocation:
    line = stmt.lineno if stmt is not None and stmt.lineno else defn.source_line
    return SourceLocation(defn.source_file, line)


# ---------------------------------------------------------------------------
# Symbolic vertical-interval algebra
# ---------------------------------------------------------------------------
# An AxisBound is affine in nk: offset + (nk if anchored at "end" else 0).
# Comparing (anchor, offset) keys lexicographically is exact for any domain
# larger than the offsets involved — the regime stencils are written for.


def _key(bound: AxisBound, dk: int = 0) -> Tuple[int, int]:
    return (0 if bound.level == "start" else 1, bound.offset + dk)


def _intervals_overlap(a: Interval, b: Interval, dk: int = 0) -> bool:
    """Does ``a`` shifted down by ``dk`` levels overlap ``b``?

    ``dk`` shifts a *reader's* interval by its access offset so the
    overlap is computed between accessed levels and written levels.
    """
    lo = max(_key(a.start, dk), _key(b.start))
    hi = min(_key(a.end, dk), _key(b.end))
    return lo < hi


def _gap_between(first: Interval, second: Interval) -> bool:
    """Is there a hole between ``first`` and ``second`` (sorted by start)?"""
    return _key(first.end) < _key(second.start)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _rule_read_before_write(defn, stmts) -> Iterable[LintFinding]:
    """D101: temporary read before any write reaches it."""
    writes: Dict[str, List[_Stmt]] = {}
    for s in stmts:
        writes.setdefault(s.stmt.target.name, []).append(s)
    for s in stmts:
        for acc in _explicit_reads(s.stmt):
            if acc.name not in defn.temporaries:
                continue
            field_writes = writes.get(acc.name, [])
            dk = acc.offset[2]
            future = s.order in SEQUENTIAL_ORDERS and (
                dk > 0 if s.order == "FORWARD" else dk < 0
            )
            if future:
                # a future level of a sequential sweep has not been
                # computed yet; only a *fully executed* earlier block or
                # computation can have written it
                ok = any(
                    w.comp_idx < s.comp_idx
                    or (
                        w.comp_idx == s.comp_idx
                        and w.block_idx < s.block_idx
                    )
                    for w in field_writes
                )
                what = (
                    f"the not-yet-computed level k{dk:+d} of the "
                    f"{s.order} sweep"
                )
            else:
                # same-level (or carried-previous-level) value: an earlier
                # statement, or — for a carried read — any statement of the
                # same or an earlier block (previous level already ran it)
                carry = (
                    s.order in SEQUENTIAL_ORDERS
                    and (dk < 0 if s.order == "FORWARD" else dk > 0)
                    and any(
                        w.comp_idx == s.comp_idx
                        and w.block_idx <= s.block_idx
                        for w in field_writes
                    )
                )
                ok = carry or any(w.gidx < s.gidx for w in field_writes)
                what = f"offset {acc.offset}"
            if ok:
                continue
            yield LintFinding(
                rule="D101",
                name="read-before-write",
                severity="error",
                subject=defn.name,
                message=(
                    f"temporary {acc.name!r} is read at {what} before "
                    "anything writes it"
                ),
                location=_loc(defn, s.stmt),
                hint=(
                    "initialize the temporary in an earlier statement or "
                    "interval, or make it a field parameter if it carries "
                    "data into the stencil"
                ),
            )


def _rule_interval_coverage(defn, stmts) -> Iterable[LintFinding]:
    """D102/D103: per-field overlap and gaps between interval blocks."""
    for ci, comp in enumerate(defn.computations):
        # blocks writing each field, in block order
        by_field: Dict[str, List[Tuple[int, Interval, Assign]]] = {}
        for bi, block in enumerate(comp.intervals):
            seen_here = set()
            for stmt in block.body:
                name = stmt.target.name
                if name in seen_here:
                    continue
                seen_here.add(name)
                by_field.setdefault(name, []).append(
                    (bi, block.interval, stmt)
                )
        for name, blocks in by_field.items():
            if len(blocks) < 2:
                continue
            for x in range(len(blocks)):
                for y in range(x + 1, len(blocks)):
                    bi_a, iv_a, stmt_a = blocks[x]
                    bi_b, iv_b, stmt_b = blocks[y]
                    if _intervals_overlap(iv_a, iv_b):
                        yield LintFinding(
                            rule="D102",
                            name="interval-overlap",
                            severity="warning",
                            subject=defn.name,
                            message=(
                                f"{name!r} is written in overlapping "
                                f"vertical intervals {iv_a!r} and {iv_b!r} "
                                f"of computation {ci}; the later block "
                                "overwrites the earlier one"
                            ),
                            location=_loc(defn, stmt_b),
                            hint=(
                                "narrow one interval, or move the override "
                                "into the same block so the double write "
                                "is explicit"
                            ),
                        )
            ordered = sorted(blocks, key=lambda b: _key(b[1].start))
            for (_, iv_a, _), (_, iv_b, stmt_b) in zip(ordered, ordered[1:]):
                if _gap_between(iv_a, iv_b):
                    yield LintFinding(
                        rule="D103",
                        name="interval-gap",
                        severity="warning",
                        subject=defn.name,
                        message=(
                            f"{name!r} is written in intervals {iv_a!r} and "
                            f"{iv_b!r} of computation {ci} but the levels "
                            "between them are never written"
                        ),
                        location=_loc(defn, stmt_b),
                        hint=(
                            "close the hole (e.g. interval(a, b) meeting "
                            "interval(b, c)) or write the full range first "
                            "and override the boundaries"
                        ),
                    )


def _rule_extent_consistency(defn, stmts, extents) -> Iterable[LintFinding]:
    """D104: recorded extents must match what the offsets imply."""
    recomputed = compute_extents(defn)
    if extents is None:
        return
    for name, ext in recomputed.field_extents.items():
        recorded = extents.field_extents.get(name)
        if recorded != ext:
            yield LintFinding(
                rule="D104",
                name="extent-mismatch",
                severity="error",
                subject=defn.name,
                message=(
                    f"recorded extent of {name!r} is {recorded}, but the "
                    f"access offsets imply {ext}; halo/allocation sizes "
                    "were decided from stale extents"
                ),
                location=_loc(defn),
                hint="re-run extent inference after editing the stencil IR",
            )
    if len(extents.stmt_extents) != len(recomputed.stmt_extents) or any(
        a != b
        for a, b in zip(extents.stmt_extents, recomputed.stmt_extents)
    ):
        yield LintFinding(
            rule="D104",
            name="extent-mismatch",
            severity="error",
            subject=defn.name,
            message=(
                "per-statement compute extents disagree with the offsets "
                "in the definition"
            ),
            location=_loc(defn),
            hint="re-run extent inference after editing the stencil IR",
        )


def _rule_parallel_race(defn, stmts) -> Iterable[LintFinding]:
    """D105: write-after-read at an offset along a concurrent axis."""
    by_comp: Dict[int, List[_Stmt]] = {}
    for s in stmts:
        by_comp.setdefault(s.comp_idx, []).append(s)
    for ci, comp_stmts in by_comp.items():
        order = comp_stmts[0].order
        writes: Dict[str, List[_Stmt]] = {}
        for s in comp_stmts:
            writes.setdefault(s.stmt.target.name, []).append(s)
        for s in comp_stmts:
            for acc in _explicit_reads(s.stmt):
                di, dj, dk = acc.offset
                concurrent = (di, dj) != (0, 0) or (
                    order == "PARALLEL" and dk != 0
                )
                if not concurrent:
                    continue
                for w in writes.get(acc.name, []):
                    if w.gidx < s.gidx:
                        continue  # RAW: legalized by compute extents
                    # accessed levels must overlap the written levels
                    if not _intervals_overlap(s.interval, w.interval, dk):
                        continue
                    yield LintFinding(
                        rule="D105",
                        name="parallel-race",
                        severity="error",
                        subject=defn.name,
                        message=(
                            f"{acc.name!r} is read at offset {acc.offset} "
                            f"but written at or after the read in the same "
                            f"{order} computation; concurrent grid points "
                            "may observe the overwritten value"
                        ),
                        location=_loc(defn, s.stmt),
                        hint=(
                            "copy the pre-update value into a separate "
                            "temporary before the write, or split the "
                            "write into a later computation block"
                        ),
                    )
                    break  # one finding per read access


def _rule_dead_store(defn, stmts) -> Iterable[LintFinding]:
    """D106: a temporary store no later statement can observe."""
    reads_of: Dict[str, List[Tuple[_Stmt, FieldAccess]]] = {}
    for s in stmts:
        for acc in _all_reads(s.stmt):
            reads_of.setdefault(acc.name, []).append((s, acc))
    for s in stmts:
        name = s.stmt.target.name
        if name not in defn.temporaries:
            continue  # writes to parameters are stencil outputs
        uses = reads_of.get(name, [])
        live = False
        for r, acc in uses:
            if r.gidx > s.gidx:
                live = True
                break
            # sequential K carry: an *earlier* statement of the same block
            # (or a later block) reading the previous level observes this
            # store on the next level iteration; earlier blocks finished
            # before this store ever ran
            dk = acc.offset[2]
            if (
                s.order in SEQUENTIAL_ORDERS
                and r.comp_idx == s.comp_idx
                and r.block_idx >= s.block_idx
                and (dk < 0 if s.order == "FORWARD" else dk > 0)
            ):
                live = True
                break
        if live:
            continue
        yield LintFinding(
            rule="D106",
            name="dead-store",
            severity="warning",
            subject=defn.name,
            message=(
                f"value stored to temporary {name!r} is never read by any "
                "later statement"
            ),
            location=_loc(defn, s.stmt),
            hint="delete the assignment or consume the value",
        )


def _rule_unused_parameter(defn, stmts) -> Iterable[LintFinding]:
    """D107: parameters the stencil body never touches."""
    touched = set()
    scalars = set()
    for s in stmts:
        touched.add(s.stmt.target.name)
        for acc in _all_reads(s.stmt):
            touched.add(acc.name)
        exprs = [s.stmt.value] + ([s.stmt.mask] if s.stmt.mask else [])
        for e in exprs:
            for node in walk_expr(e):
                if isinstance(node, ScalarRef):
                    scalars.add(node.name)
    for p in defn.params:
        used = p.name in touched if p.is_field else p.name in scalars
        if not used:
            kind = "field" if p.is_field else "scalar"
            yield LintFinding(
                rule="D107",
                name="unused-parameter",
                severity="warning",
                subject=defn.name,
                message=f"{kind} parameter {p.name!r} is never used",
                location=_loc(defn),
                hint="drop the parameter from the signature",
            )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lint_stencil(
    stencil, extents: Optional[StencilExtents] = None
) -> List[LintFinding]:
    """Run every DSL-layer rule on a stencil.

    Accepts a :class:`StencilDef` or a compiled ``StencilObject`` (whose
    cached extents are then cross-checked by rule D104).
    """
    defn = getattr(stencil, "definition", stencil)
    if extents is None:
        extents = getattr(stencil, "extents", None)
    stmts = _flatten(defn)
    findings: List[LintFinding] = []
    findings.extend(_rule_read_before_write(defn, stmts))
    findings.extend(_rule_interval_coverage(defn, stmts))
    findings.extend(_rule_extent_consistency(defn, stmts, extents))
    findings.extend(_rule_parallel_race(defn, stmts))
    findings.extend(_rule_dead_store(defn, stmts))
    findings.extend(_rule_unused_parameter(defn, stmts))
    return findings
