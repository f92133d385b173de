"""State guards: cheap invariant checks on the prognostic state.

A :class:`StateGuard` scans every rank's fields between remapping steps
for the three ways a dynamical-core run dies silently:

- non-finite values (NaN/Inf blowup, corrupted halo payloads),
- non-positive layer thickness (``delp <= 0`` collapses the vertical
  coordinate),
- unphysical wind speed (a CFL-style bound: a run past it is already
  lost, it just hasn't crashed yet).

The scan allocates nothing in steady state: the single temporary — the
boolean output of ``np.isfinite`` — is a take of the calling thread's
scratch worker (:mod:`repro.runtime.pool`), whose slab is already large
enough after the first check; the min/max reductions return scalars.
What happens on a violation (``raise | rollback | warn``) is the
*driver's* policy decision — the guard only detects and reports.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GuardConfig", "GuardViolation", "StateGuard"]

#: fields of RankFields scanned for finiteness, in scan order
GUARDED_FIELDS = ("delp", "pt", "u", "v", "w")

POLICIES = ("raise", "rollback", "warn")


@dataclasses.dataclass(frozen=True)
class GuardConfig:
    """What the guard checks and what the driver does on a trip.

    Attributes:
        policy: ``raise`` (fail fast), ``rollback`` (retry from the last
            snapshot), or ``warn`` (report and continue).
        check_finite: NaN/Inf scan over the guarded fields and tracers.
        check_positive_delp: require ``delp > 0`` everywhere.
        max_wind: bound on ``|u|`` and ``|v|`` [m/s]; 0 disables.
        fields: which state attributes the finite scan covers.
    """

    policy: str = "rollback"
    check_finite: bool = True
    check_positive_delp: bool = True
    max_wind: float = 300.0
    fields: Tuple[str, ...] = GUARDED_FIELDS

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown guard policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )


@dataclasses.dataclass
class GuardViolation:
    """One tripped invariant on one rank's field."""

    rank: int
    field: str
    kind: str  # "nonfinite" | "nonpositive" | "wind_bound"
    value: float  # offending count or extremal value
    step: int = 0

    def __str__(self) -> str:
        if self.kind == "nonfinite":
            what = f"{int(self.value)} non-finite value(s)"
        elif self.kind == "nonpositive":
            what = f"min {self.value:.6g} <= 0"
        else:
            what = f"|wind| {self.value:.6g} exceeds bound"
        return (
            f"rank {self.rank} field {self.field!r} at step {self.step}: "
            f"{what}"
        )


class StateGuard:
    """Scans per-rank states against the configured invariants."""

    def __init__(self, config: Optional[GuardConfig] = None):
        self.config = config or GuardConfig()
        self.checks = 0
        self.trips = 0

    # ------------------------------------------------------------------
    def _finite_violation(self, arr: np.ndarray) -> int:
        """Number of non-finite entries (0 when clean), allocation-free
        via a boolean buffer in the thread's scratch."""
        from repro.runtime.pool import current

        worker = current()
        slab = worker.take(arr.size)
        try:
            buf = slab.view(arr.shape, np.bool_)
            np.isfinite(arr, out=buf)
            if buf.all():
                return 0
            return int(arr.size - np.count_nonzero(buf))
        finally:
            worker.depth -= 1

    def check_states(
        self, states: Sequence, step: int = 0
    ) -> List[GuardViolation]:
        """All violations across ``states`` (empty list when clean)."""
        cfg = self.config
        self.checks += 1
        violations: List[GuardViolation] = []

        def scan(rank: int, name: str, arr: np.ndarray) -> None:
            if cfg.check_finite:
                bad = self._finite_violation(arr)
                if bad:
                    violations.append(
                        GuardViolation(rank, name, "nonfinite", bad, step)
                    )
                    # non-finite data poisons the other reductions; the
                    # remaining checks on this array would double-report
                    return
            if name == "delp" and cfg.check_positive_delp:
                lo = float(np.min(arr))
                if not lo > 0.0:
                    violations.append(
                        GuardViolation(rank, name, "nonpositive", lo, step)
                    )
            if name in ("u", "v") and cfg.max_wind > 0.0:
                hi = max(float(np.max(arr)), -float(np.min(arr)))
                if hi > cfg.max_wind:
                    violations.append(
                        GuardViolation(rank, name, "wind_bound", hi, step)
                    )

        for rank, state in enumerate(states):
            for name in cfg.fields:
                scan(rank, name, getattr(state, name))
            if cfg.check_finite:
                for t, tracer in enumerate(state.tracers):
                    bad = self._finite_violation(tracer)
                    if bad:
                        violations.append(
                            GuardViolation(
                                rank, f"tracer{t}", "nonfinite", bad, step
                            )
                        )
        if violations:
            self.trips += 1
        return violations
