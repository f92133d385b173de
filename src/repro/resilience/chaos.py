"""Deterministic fault injection (the chaos harness).

A :class:`ChaosPlan` decides, at named *sites* on the hot path, whether
to inject a fault. Sites consult the plan with a monotonically
increasing per-site occurrence counter, so a plan is a pure function of
``(spec, seed, consult sequence)`` — the same seeded plan against the
same execution replays the exact same fault sequence. Every fired fault
is recorded (site, occurrence index, model step, detail), and
:meth:`ChaosPlan.replay_spec` renders a spec that pins those exact
occurrences, so even a probabilistic run can be replayed precisely.

Spec grammar (``REPRO_CHAOS`` or :func:`set_plan`), ``;``-separated::

    seed=42                  # RNG seed for probabilistic rules
    halo.drop@3              # fire at the 3rd consult of that site
    halo.corrupt@2,9         # fire at the 2nd and 9th consults
    pool.poison@5+12         # fire at 5, then every 12 consults after
    stencil.nanflip:p=0.01   # fire each consult with probability 0.01

Known sites (an unknown site name in a spec is accepted — it simply
never fires unless some code consults it — but is warned about):

========================  ==================================================
``halo.drop``             ``LocalComm.Ipack`` discards the message
``halo.delay``            delivery withheld for a few receive polls
``halo.corrupt``          a NaN is written into the packed payload
``pool.poison``           a take of the scratch arena is NaN-filled
``compile.fail``          ``get_or_compile`` raises InjectedCompileError
``stencil.nanflip``       a NaN lands in one stencil output element
========================  ==================================================

The disabled path costs one module-attribute ``is None`` check at each
site — no allocation, no locking.
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import warnings
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.resilience.errors import ChaosSpecError

__all__ = [
    "ChaosPlan",
    "ChaosRule",
    "InjectedFault",
    "KNOWN_SITES",
    "active",
    "clear_plan",
    "consult",
    "get_plan",
    "set_plan",
    "set_step",
]

KNOWN_SITES = (
    "halo.drop",
    "halo.delay",
    "halo.corrupt",
    "pool.poison",
    "compile.fail",
    "stencil.nanflip",
)

#: how long one ``halo.delay`` fault withholds delivery, in units of the
#: communicator's ``poll_interval``. The delay is a delivery-time
#: condition stamped on the message itself (not a poll-count countdown),
#: so seeded replays are identical however often a waiter wakes — and
#: identical between sequential and threaded execution.
DEFAULT_DELAY_POLLS = 2


@dataclasses.dataclass
class InjectedFault:
    """One fired fault: where, which consult, which model step."""

    site: str
    occurrence: int
    step: int
    detail: Dict[str, object] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class ChaosRule:
    """When one site fires: explicit occurrences, a period, or a rate."""

    at: Tuple[int, ...] = ()
    start: int = 0  # with period: first firing occurrence
    period: int = 0  # 0 = no periodic firing
    p: float = 0.0  # per-consult probability

    def fires(self, n: int, rng: Optional[random.Random]) -> bool:
        if n in self.at:
            return True
        if self.period and n >= self.start:
            if (n - self.start) % self.period == 0:
                return True
        if self.p > 0.0 and rng is not None:
            # the stream advances exactly once per consult of a p-rule,
            # so firing decisions depend only on (seed, site, n)
            return rng.random() < self.p
        return False


def _parse_clause(clause: str) -> Tuple[str, ChaosRule]:
    clause = clause.strip()
    if ("@" in clause or ":" in clause) and not clause.split("@")[0].split(":")[0].strip():
        raise ChaosSpecError(f"bad clause {clause!r}: empty site name")
    if "@" in clause:
        site, _, spec = clause.partition("@")
        site = site.strip()
        spec = spec.strip()
        try:
            if "+" in spec:
                start_s, _, period_s = spec.partition("+")
                start, period = int(start_s), int(period_s)
                if start < 1 or period < 1:
                    raise ValueError
                return site, ChaosRule(start=start, period=period)
            at = tuple(sorted(int(tok) for tok in spec.split(",")))
            if not at or min(at) < 1:
                raise ValueError
            return site, ChaosRule(at=at)
        except ValueError:
            raise ChaosSpecError(
                f"bad occurrence spec {clause!r}: expected "
                f"'site@N', 'site@N,M,…' or 'site@N+PERIOD' with "
                f"positive integers"
            ) from None
    if ":" in clause:
        site, _, spec = clause.partition(":")
        site = site.strip()
        spec = spec.strip()
        if not spec.startswith("p="):
            raise ChaosSpecError(
                f"bad rule {clause!r}: only 'site:p=FLOAT' is supported"
            )
        try:
            p = float(spec[2:])
        except ValueError:
            raise ChaosSpecError(f"bad probability in {clause!r}") from None
        if not 0.0 <= p <= 1.0:
            raise ChaosSpecError(f"probability out of [0, 1] in {clause!r}")
        return site, ChaosRule(p=p)
    raise ChaosSpecError(
        f"bad clause {clause!r}: expected 'seed=N', 'site@…' or 'site:p=…'"
    )


class ChaosPlan:
    """A seeded, deterministic fault-injection schedule."""

    def __init__(self, seed: int = 0, rules: Optional[Dict[str, ChaosRule]] = None):
        self.seed = int(seed)
        self.rules: Dict[str, ChaosRule] = dict(rules or {})
        self.injected: List[InjectedFault] = []
        self.current_step = 0
        self._consults: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._lock = threading.Lock()
        for site in self.rules:
            if site not in KNOWN_SITES:
                warnings.warn(
                    f"chaos rule for unknown site {site!r}; known sites: "
                    f"{', '.join(KNOWN_SITES)}",
                    stacklevel=3,
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "ChaosPlan":
        """Parse the ``REPRO_CHAOS`` grammar (see module docstring)."""
        seed = 0
        rules: Dict[str, ChaosRule] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[5:])
                except ValueError:
                    raise ChaosSpecError(f"bad seed in {clause!r}") from None
                continue
            site, rule = _parse_clause(clause)
            if site in rules:
                raise ChaosSpecError(f"duplicate rule for site {site!r}")
            rules[site] = rule
        if not rules:
            raise ChaosSpecError(
                f"chaos spec {spec!r} defines no site rules"
            )
        return cls(seed=seed, rules=rules)

    # ------------------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        """A per-stream deterministic RNG: f(seed, stream name) only."""
        rng = self._rngs.get(stream)
        if rng is None:
            rng = random.Random(
                (self.seed * 1000003) ^ zlib.crc32(stream.encode())
            )
            self._rngs[stream] = rng
        return rng

    def consult(self, site: str, **detail) -> Optional[InjectedFault]:
        """Ask whether ``site`` faults at this occurrence.

        Returns the recorded :class:`InjectedFault` (truthy) when the
        site fires, else ``None``. Callers may attach extra keys to the
        returned fault's ``detail`` (e.g. the poisoned index).
        """
        with self._lock:
            n = self._consults.get(site, 0) + 1
            self._consults[site] = n
            rule = self.rules.get(site)
            if rule is None:
                return None
            rng = self.rng(site) if rule.p > 0.0 else None
            if not rule.fires(n, rng):
                return None
            fault = InjectedFault(
                site=site,
                occurrence=n,
                step=self.current_step,
                detail=dict(detail),
            )
            self.injected.append(fault)
            return fault

    # ------------------------------------------------------------------
    def consults(self, site: str) -> int:
        """How many times ``site`` has consulted this plan."""
        return self._consults.get(site, 0)

    def counts(self) -> Dict[str, int]:
        """Fired faults per site."""
        out: Dict[str, int] = {}
        for fault in self.injected:
            out[fault.site] = out.get(fault.site, 0) + 1
        return out

    def replay_spec(self) -> str:
        """A spec pinning exactly the occurrences that fired, so any run
        (including probabilistic ones) replays identically."""
        by_site: Dict[str, List[int]] = {}
        for fault in self.injected:
            by_site.setdefault(fault.site, []).append(fault.occurrence)
        clauses = [f"seed={self.seed}"]
        for site in sorted(by_site):
            occs = ",".join(str(n) for n in sorted(set(by_site[site])))
            clauses.append(f"{site}@{occs}")
        return ";".join(clauses)

    def trace(self) -> List[Dict[str, object]]:
        """JSON-able record of every injected fault, in firing order."""
        return [
            {
                "site": f.site,
                "occurrence": f.occurrence,
                "step": f.step,
                "detail": dict(f.detail),
            }
            for f in self.injected
        ]

# ---------------------------------------------------------------------------
# process-wide active plan
#
# Hot-path call sites guard with ``chaos._PLAN is not None`` directly so a
# disabled harness costs one attribute load per site.
# ---------------------------------------------------------------------------

_PLAN: Optional[ChaosPlan] = None


def _init_from_env() -> None:
    global _PLAN
    spec = os.environ.get("REPRO_CHAOS", "").strip()
    if spec:
        _PLAN = ChaosPlan.from_spec(spec)


def get_plan() -> Optional[ChaosPlan]:
    """The active plan, or ``None`` when chaos is disabled."""
    return _PLAN


def set_plan(plan: Optional[ChaosPlan]) -> Optional[ChaosPlan]:
    """Install (or, with ``None``, remove) the active plan; returns the
    previous one so tests can restore it."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def clear_plan() -> None:
    set_plan(None)


def active() -> bool:
    return _PLAN is not None


def consult(site: str, **detail) -> Optional[InjectedFault]:
    """Module-level consult: ``None`` immediately when no plan is set."""
    plan = _PLAN
    if plan is None:
        return None
    return plan.consult(site, **detail)


def set_step(step: int) -> None:
    """Stamp subsequent fault records with the current model step."""
    plan = _PLAN
    if plan is not None:
        plan.current_step = step


# ---------------------------------------------------------------------------
# site helpers used by the instrumented layers
# ---------------------------------------------------------------------------


def maybe_poison(buf: np.ndarray) -> None:
    """``pool.poison``: NaN-fill a scratch take (its bytes as float64).

    A poisoned buffer is only dangerous to a consumer that reads scratch
    before writing it — a correct program (the codegen zeroes exactly
    the read-before-write locals) absorbs the poison bit-identically.
    """
    plan = _PLAN
    if plan is None:
        return
    fault = plan.consult(
        "pool.poison", shape=tuple(buf.shape), dtype=buf.dtype.name
    )
    if fault is not None:
        buf.fill(np.nan)


def maybe_nanflip(name: str, outputs: Dict[str, np.ndarray]) -> None:
    """``stencil.nanflip``: write one NaN into one of the arrays that
    stencil ``name`` — called, or run as a kernel of an orchestrated
    program — has written."""
    plan = _PLAN
    if plan is None:
        return
    targets = [n for n, arr in outputs.items() if arr.dtype.kind == "f"]
    if not targets:
        return
    fault = plan.consult("stencil.nanflip", stencil=name)
    if fault is None:
        return
    rng = plan.rng("stencil.nanflip.index")
    target = targets[rng.randrange(len(targets))]
    arr = outputs[target]
    index = rng.randrange(arr.size)
    arr.flat[index] = np.nan
    fault.detail["field"] = target
    fault.detail["index"] = index


_init_from_env()
