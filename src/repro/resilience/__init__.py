"""Resilience layer: fault injection, state guards, checkpoint/restart
and degraded-mode execution.

The paper's production target (Pace on thousands of GPUs) only works if
a long run survives transient failures. This package provides the four
cooperating pieces, wired through communicator → halo → runtime →
backends → dyncore → obs:

- :mod:`repro.resilience.chaos` — deterministic, seedable fault
  injection at named sites (``REPRO_CHAOS=<spec>``), with exact replay.
- :mod:`repro.resilience.guards` — NaN/Inf, ``delp > 0`` and wind-bound
  invariant checks with ``raise | rollback | warn`` policies.
- :mod:`repro.resilience.checkpoint` — in-memory snapshots for rollback
  (and packed, for the serving cache's states at rest) plus versioned
  on-disk checkpoints for restart.
- degraded mode — a failing compiled-backend stencil transparently
  re-executes on the bit-exact NumPy debug backend
  (:meth:`repro.dsl.stencil.StencilObject.__call__`), and halo receives
  poll with a bounded budget instead of crashing on the first miss.
  A failure on the NumPy backend itself propagates to the dyncore retry
  loop, or to the caller.

Every recovery action increments a counter of the registered
``resilience`` set (:mod:`repro.obs.counters`: a rank worker's counts
reach its parent) surfaced in the ``repro.obs`` report footer;
:func:`summary` is the machine-facing view.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Dict, List, Optional, Tuple

from repro.resilience import chaos
from repro.resilience.chaos import ChaosPlan, InjectedFault
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    PackedSnapshot,
    Snapshot,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.errors import (
    ChaosSpecError,
    CheckpointCorruptError,
    CheckpointError,
    FallbackWarning,
    GuardError,
    GuardWarning,
    HaloTimeoutError,
    InjectedCompileError,
    InjectedFaultError,
    MemberLostError,
    OrphanedMessagesWarning,
    RecoverableFault,
    ResilienceError,
    RetriesExhaustedError,
)
from repro.resilience.guards import GuardConfig, GuardViolation, StateGuard
# after the submodules: importing ``repro.obs`` comes back here through
# ``repro.dsl``, which needs them and nothing below
from repro.obs.counters import Counters, register

__all__ = [
    "CHECKPOINT_VERSION",
    "ChaosPlan",
    "ChaosSpecError",
    "CheckpointCorruptError",
    "CheckpointError",
    "FallbackWarning",
    "GuardConfig",
    "GuardError",
    "GuardViolation",
    "GuardWarning",
    "HaloTimeoutError",
    "InjectedCompileError",
    "InjectedFault",
    "InjectedFaultError",
    "MemberLostError",
    "OrphanedMessagesWarning",
    "PackedSnapshot",
    "RecoverableFault",
    "ResilienceConfig",
    "ResilienceError",
    "RetriesExhaustedError",
    "Snapshot",
    "StateGuard",
    "chaos",
    "load_checkpoint",
    "record",
    "record_fallback",
    "reset",
    "save_checkpoint",
    "summary",
]


@dataclasses.dataclass
class ResilienceConfig:
    """Driver-level resilience options (``DynamicalCore(resilience=…)``).

    Attributes:
        guard: invariant checks and trip policy (see
            :class:`~repro.resilience.guards.GuardConfig`).
        max_retries: rollback/re-advance attempts per remapping step
            before :class:`RetriesExhaustedError`.
        backoff_base: seconds slept before retry ``k`` is
            ``backoff_base * 2**(k-1)`` (0 disables sleeping — the
            in-process transport has nothing to wait for; real MPI
            transients do).
        checkpoint_every: write an on-disk checkpoint every N physics
            steps (0 disables).
        checkpoint_dir: directory for periodic checkpoints (required
            when ``checkpoint_every > 0``).
    """

    guard: GuardConfig = dataclasses.field(default_factory=GuardConfig)
    max_retries: int = 3
    backoff_base: float = 0.0
    checkpoint_every: int = 0
    checkpoint_dir: Optional[str] = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_every > 0 requires checkpoint_dir"
            )


# ---------------------------------------------------------------------------
# process-wide recovery counters (the obs report footer reads these)
# ---------------------------------------------------------------------------

COUNTERS = register("resilience", Counters(sums=(
    "guard_trips",
    "rollbacks",
    "retries",
    "fallbacks",
    "halo_timeouts",
    "halo_redeliveries",
    "orphaned_messages",
    "checkpoints_saved",
    "checkpoints_restored",
)))
#: ``record(name, n=1)``: increment one recovery counter (rank threads
#: report redeliveries and timeouts concurrently); an unknown name is a
#: ``KeyError``
record = COUNTERS.add

#: most recent backend fallbacks as (stencil, backend, error repr)
_FALLBACK_LOG: List[Tuple[str, str, str]] = []
_FALLBACK_LOG_LIMIT = 32


def record_fallback(stencil: str, backend: str, exc: BaseException) -> None:
    """Record (and warn about) one degraded-mode stencil re-execution."""
    record("fallbacks")
    _FALLBACK_LOG.append((stencil, backend, f"{type(exc).__name__}: {exc}"))
    del _FALLBACK_LOG[:-_FALLBACK_LOG_LIMIT]
    warnings.warn(
        f"stencil {stencil!r}: backend {backend!r} failed "
        f"({type(exc).__name__}: {exc}); re-executed on the NumPy "
        f"debug backend",
        FallbackWarning,
        stacklevel=3,
    )


def summary() -> Dict[str, object]:
    """Recovery counters plus the active chaos plan's injection record."""
    plan = chaos.get_plan()
    return {
        "counters": COUNTERS.snapshot(),
        "fallback_log": [list(entry) for entry in _FALLBACK_LOG],
        "chaos": {
            "active": plan is not None,
            "seed": plan.seed if plan else None,
            "injected": plan.counts() if plan else {},
            "injected_total": len(plan.injected) if plan else 0,
        },
    }


def reset() -> None:
    """Zero all counters and drop the fallback log (the chaos plan is
    untouched — clear it with ``chaos.clear_plan()``)."""
    COUNTERS.reset()
    _FALLBACK_LOG.clear()
