"""Structured results of a facade run: per-member and ensemble views.

Both result types serialize to JSON (``to_json``/``from_json``) for the
serving layer's response path: every scalar field round-trips exactly
(Python's JSON float encoding is ``repr``-based, so ``float`` values
survive bit-identically). The two object-graph fields do **not**
serialize — ``MemberResult.states`` (raw prognostic arrays; persist
those with :func:`repro.resilience.save_checkpoint`) and
``RunResult.engine`` (the live core) — a deserialized result carries
``states=[]`` / ``engine=None``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional

__all__ = ["MemberResult", "RunResult"]


@dataclasses.dataclass
class MemberResult:
    """Outcome of one ensemble member (the control is member 0).

    ``states`` is the member's per-rank
    :class:`~repro.fv3.initial.RankFields` list — its only copy,
    inspectable after the run and independent of every other member. For
    the member resident in the engine when the result was made the
    entries are the engine's own arrays; a driver that goes on to load
    another member replaces them with the member's copied-out arrays, so
    the list keeps showing this member (take
    ``EnsembleDriver.snapshot_member`` to keep a state). The engine core
    the members were stepped through, and what of it a result keeps, is
    on the owning :class:`RunResult` (``result.engine``).
    """

    member: int
    steps: int
    summary: Dict[str, float]
    mass_drift: float
    tracer_drift: Optional[float]
    check_violations: List[str]
    history: List[Dict[str, float]]
    states: List[object]

    @property
    def ok(self) -> bool:
        return not self.check_violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-able view (``states`` are not serialized)."""
        return {
            "member": self.member,
            "steps": self.steps,
            "summary": dict(self.summary),
            "mass_drift": self.mass_drift,
            "tracer_drift": self.tracer_drift,
            "check_violations": list(self.check_violations),
            "history": [dict(h) for h in self.history],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MemberResult":
        return cls(
            member=int(data["member"]),
            steps=int(data["steps"]),
            summary=dict(data["summary"]),
            mass_drift=float(data["mass_drift"]),
            tracer_drift=(
                None if data.get("tracer_drift") is None
                else float(data["tracer_drift"])
            ),
            check_violations=list(data.get("check_violations", [])),
            history=[dict(h) for h in data.get("history", [])],
            states=[],
        )

    @classmethod
    def from_json(cls, text: str) -> "MemberResult":
        return cls.from_dict(json.loads(text))


@dataclasses.dataclass
class RunResult:
    """What :func:`repro.run.run` returns: members + amortization.

    ``engine`` is the shared :class:`~repro.fv3.dyncore.DynamicalCore`
    every member was stepped through — use it for geometry
    (``engine.grids``, ``engine.h``) and communication diagnostics
    (``engine.halo.comm``); after the run its arrays are the storage
    of the member resident at the end, so per-member fields belong on
    ``member(k).states``. The run's driver released the engine's step
    machinery when it closed (:meth:`DynamicalCore.release`:
    ``engine.acoustics is None``), so a kept result holds the states,
    the grids and the halo updater and nothing else of the run — no
    module, workspace or bound program; a driver handed the engine
    (``EnsembleDriver(..., engine=result.engine)``) rebuilds the rest
    from the caches. Dropping the result frees all of it at once.
    """

    scenario: str
    config: object
    steps: int
    seed: int
    members: List[MemberResult]
    seconds: float
    executor: str
    amortization: Dict[str, object]
    engine: object = None

    def member(self, member_id: int) -> MemberResult:
        for m in self.members:
            if m.member == member_id:
                return m
        raise KeyError(f"no member {member_id} in this run")

    def to_dict(self) -> Dict[str, object]:
        """JSON-able view (``engine`` and member states not serialized).

        ``config`` serializes as its dataclass field dict when it is a
        :class:`~repro.fv3.config.DynamicalCoreConfig` (the facade always
        sets one), or passes through unchanged if already a plain dict.
        """
        config = self.config
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            config = dataclasses.asdict(config)
        return {
            "scenario": self.scenario,
            "config": config,
            "steps": self.steps,
            "seed": self.seed,
            "members": [m.to_dict() for m in self.members],
            "seconds": self.seconds,
            "executor": self.executor,
            "amortization": dict(self.amortization),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        config = data.get("config")
        if isinstance(config, dict):
            # rebuild the real config type so round-tripped results
            # compare equal to the originals field by field
            from repro.fv3.config import DynamicalCoreConfig

            config = DynamicalCoreConfig(**config)
        return cls(
            scenario=str(data["scenario"]),
            config=config,
            steps=int(data["steps"]),
            seed=int(data["seed"]),
            members=[
                MemberResult.from_dict(m) for m in data.get("members", [])
            ],
            seconds=float(data["seconds"]),
            executor=str(data["executor"]),
            amortization=dict(data.get("amortization", {})),
            engine=None,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.members)

    @property
    def violations(self) -> Dict[int, List[str]]:
        return {
            m.member: m.check_violations
            for m in self.members if m.check_violations
        }

    def describe(self) -> str:
        """A short human-readable account of the run."""
        am = self.amortization
        lines = [
            f"scenario {self.scenario!r}: {len(self.members)} member(s) x "
            f"{self.steps} step(s) in {self.seconds:.3f}s "
            f"[{self.executor}]",
        ]
        for m in self.members:
            status = "OK" if m.ok else "; ".join(m.check_violations)
            lines.append(
                f"  member {m.member}: max|V|={m.summary['max_wind']:.2f} "
                f"m/s  mass drift={m.mass_drift:+.2e}  checks: {status}"
            )
        lines.append(
            f"  amortized: grids {am['grid_builds_avoided']} builds "
            f"avoided, programs {am.get('program_traces', 0)} traced / "
            f"{am.get('program_binds', 0)} bound, compile cache "
            f"{am['compile_hits']} hits / {am['compile_misses']} misses"
        )
        return "\n".join(lines)
