"""Exception and warning types of the resilience layer.

Kept dependency-free so any layer (communicator, pool, compile cache,
stencil dispatch, dyncore) can raise or catch them without import
cycles. The split that matters for callers:

- :class:`RecoverableFault` subtypes are transient by construction —
  an injected fault fires once per planned occurrence, a dropped halo
  message is gone but the exchange can be redone — so the dyncore retry
  loop rolls back and re-advances on them.
- :class:`GuardError` carries state-invariant violations; whether it is
  recoverable is a *policy* decision (``raise | rollback | warn``), made
  by the driver, not by the type.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "ChaosSpecError",
    "FallbackWarning",
    "GuardError",
    "GuardWarning",
    "HaloTimeoutError",
    "InjectedCompileError",
    "InjectedFaultError",
    "MemberLostError",
    "OrphanedMessagesWarning",
    "RecoverableFault",
    "ResilienceError",
    "RetriesExhaustedError",
]


class ResilienceError(RuntimeError):
    """Base class of all resilience-layer errors."""


class ChaosSpecError(ResilienceError):
    """A ``REPRO_CHAOS`` spec string could not be parsed."""


class RecoverableFault(ResilienceError):
    """A transient failure the dyncore retry loop may roll back from."""


class InjectedFaultError(RecoverableFault):
    """Raised when a chaos site fires a fault that manifests as an
    exception (rather than silently corrupting data)."""

    def __init__(self, site: str, occurrence: int, detail: str = ""):
        self.site = site
        self.occurrence = occurrence
        msg = f"injected fault at site {site!r} (occurrence {occurrence})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InjectedCompileError(InjectedFaultError):
    """A chaos-forced SDFG compile/validation failure."""


class HaloTimeoutError(RecoverableFault):
    """An ``Irecv`` was never matched within the poll budget.

    Names the communicating ranks, the tag, the exchange phase and the
    owning exchange's tag-slot window (``fslot_base`` — both set by the
    halo layer, which owns the tag encoding) and the mailbox keys still
    pending, so an unmatched receive is debuggable from the message
    alone and cross-referenceable with the static protocol checker's
    C3xx findings, which identify exchanges by the same slot base.
    """

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        polls: int,
        pending: Sequence[Tuple[int, int, int]],
        phase: Optional[int] = None,
        fslot_base: Optional[int] = None,
    ):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.polls = polls
        self.pending = list(pending)
        self.phase = phase
        self.fslot_base = fslot_base
        super().__init__("")

    def __str__(self) -> str:
        phase = "?" if self.phase is None else self.phase
        fslot = "?" if self.fslot_base is None else self.fslot_base
        pending = (
            ", ".join(
                f"(src={s}, dst={d}, tag={t})" for s, d, t in self.pending
            )
            or "(empty)"
        )
        return (
            f"Irecv from rank {self.source} to rank {self.dest} "
            f"(tag {self.tag}, phase {phase}, fslot_base {fslot}) not "
            f"delivered after {self.polls} polls; pending mailbox: "
            f"{pending}"
        )


class GuardError(ResilienceError):
    """One or more state invariants failed (see ``.violations``)."""

    def __init__(self, violations: List):
        self.violations = list(violations)
        shown = "; ".join(str(v) for v in self.violations[:4])
        more = len(self.violations) - 4
        if more > 0:
            shown += f"; … {more} more"
        super().__init__(
            f"{len(self.violations)} state-guard violation(s): {shown}"
        )


class RetriesExhaustedError(ResilienceError):
    """The rollback/retry budget ran out without a clean re-advance."""

    def __init__(self, step: int, attempts: int, last: BaseException):
        self.step = step
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"step {step}: {attempts} rollback attempt(s) exhausted; "
            f"last failure: {type(last).__name__}: {last}"
        )


class MemberLostError(ResilienceError):
    """An ensemble member whose step raised part-way through.

    The engine steps the resident member's own arrays, so a step that
    raises leaves that member's only copy half-stepped. Until
    ``restore_member`` or ``remove_member``, stepping, reporting,
    snapshotting or checkpointing it raises this error.
    """

    def __init__(self, member: int):
        self.member = member
        super().__init__(
            f"member {member} is lost: a step raised part-way through "
            f"its only copy; restore_member() or remove_member() it"
        )


class CheckpointError(ResilienceError):
    """A checkpoint file is unreadable, incompatible or version-skewed."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file exists but its contents are damaged or do not
    match the schema the receiving model expects.

    Raised instead of the raw ``zipfile.BadZipFile`` / ``KeyError`` /
    ``OSError`` a truncated or hand-edited ``.npz`` would otherwise
    leak. Carries the offending path, the schema delta (arrays the
    model expected but the file lacks, and arrays the file holds that
    the model does not know), and the format version found (``None``
    when the header itself is unreadable).
    """

    def __init__(
        self,
        path,
        reason: str,
        missing_keys: Sequence[str] = (),
        extra_keys: Sequence[str] = (),
        version: Optional[int] = None,
    ):
        self.path = str(path)
        self.reason = reason
        self.missing_keys = list(missing_keys)
        self.extra_keys = list(extra_keys)
        self.version = version
        msg = f"{self.path}: {reason}"
        if self.missing_keys:
            shown = ", ".join(self.missing_keys[:6])
            more = len(self.missing_keys) - 6
            if more > 0:
                shown += f", … {more} more"
            msg += f"; missing arrays: {shown}"
        if self.extra_keys:
            shown = ", ".join(self.extra_keys[:6])
            more = len(self.extra_keys) - 6
            if more > 0:
                shown += f", … {more} more"
            msg += f"; unexpected arrays: {shown}"
        if version is not None:
            msg += f" (format version {version})"
        super().__init__(msg)


class FallbackWarning(RuntimeWarning):
    """Emitted when a stencil re-executes on the NumPy backend."""


class GuardWarning(RuntimeWarning):
    """Emitted for guard violations under the ``warn`` policy."""


class OrphanedMessagesWarning(RuntimeWarning):
    """Emitted by ``LocalComm.finalize`` for sent-but-never-received
    messages."""
