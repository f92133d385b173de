"""The batched ensemble driver and the single-core factory.

``EnsembleDriver`` owns N members of one scenario and steps them all
through **one** engine :class:`~repro.fv3.dyncore.DynamicalCore`. Each
member's prognostic state lives in its own arrays; to advance a member
the driver copies its state into the engine's arrays (``np.copyto``,
preserving array identity), steps, and copies back. Because every
compiled program is bound to the engine's arrays, the per-member fixed
costs are paid exactly once for the whole ensemble:

- the cubed-sphere geometry is built once;
- the whole stencil suite is orchestrated and compiled once (the
  content-hash compile cache sees one engine, so the batched run's
  compile misses equal a single run's, not N times them);
- scratch arrays cycle through the process-wide
  :class:`~repro.runtime.BufferPool` instead of being allocated per
  member.

This swap is bit-exact by the same argument the PR-4 rollback/retry
loop rests on: a remapping step re-advanced from a restored
:class:`~repro.resilience.Snapshot` (arrays + time + step) finishes
bit-identical, i.e. the engine holds no live cross-step state outside
the swapped fields. The ensemble determinism tests pin this down.

Seeding contract: member k's perturbation stream is
``np.random.SeedSequence(root_seed, spawn_key=(k,))`` — a pure function
of (root seed, member id), so member k is bit-identical whether it runs
alone or inside any batch. Member 0 is the unperturbed control: a
``members=1`` run reproduces the pre-ensemble single-run numerics
exactly.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fv3.config import DynamicalCoreConfig
from repro.fv3.dyncore import DynamicalCore
from repro.fv3.grid import CubedSphereGrid
from repro.fv3.initial import RankFields
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.obs import tracer as _obs
from repro.resilience import ResilienceConfig, Snapshot, load_checkpoint, \
    save_checkpoint
from repro.run import metrics as _metrics
from repro.run.results import MemberResult, RunResult
from repro.runtime import compile_cache as _compile_cache
from repro.runtime import ranks as _ranks
from repro.runtime.pool import get_pool
from repro.scenarios import Scenario, get_scenario

__all__ = ["EnsembleDriver", "build_core", "build_grids", "member_rng",
           "resolve_executor", "resolve_members"]

_TRACER = _obs.get_tracer()

#: accepted executor spellings for the facade's ``executor=`` argument
#: ("processes" is dispatched by :func:`repro.run.run` before the driver
#: is built — it launches whole worker processes, not engine threads)
_EXECUTOR_NAMES = ("sequential", "threads", "processes")

#: the swapped per-member prognostic fields (tracers handled separately)
_STATE_FIELDS = ("u", "v", "w", "pt", "delp", "delz")

#: sentinel distinguishing "no rng argument" from an explicit ``None``
#: (None is meaningful: it requests the unperturbed control state)
_UNSET_RNG = object()


def resolve_executor(
    executor: Union[None, str, _ranks.RankExecutor] = None,
    workers: Optional[int] = None,
    total_ranks: int = 6,
) -> Tuple[Optional[_ranks.RankExecutor], bool]:
    """Resolve the facade's ``executor=`` argument.

    Returns ``(executor_or_None, owned)`` — ``None`` defers to the
    process default (``REPRO_RANKS``); ``owned`` means the caller is
    responsible for ``shutdown()``.
    """
    if executor is None:
        return None, False
    if isinstance(executor, _ranks.RankExecutor):
        return executor, False
    name = str(executor).strip().lower()
    if name == "sequential":
        return _ranks.RankExecutor(1), True
    if name == "threads":
        return _ranks.RankExecutor(workers or total_ranks), True
    if name == "processes":
        raise ValueError(
            "executor='processes' launches whole worker processes and is "
            "only supported through repro.run.run(...), not through an "
            "engine-level driver"
        )
    raise ValueError(
        f"unknown executor {executor!r}; expected one of "
        f"{', '.join(map(repr, _EXECUTOR_NAMES))}, a RankExecutor, "
        f"or None"
    )


def resolve_members(members: Union[int, Sequence[int]],
                    allow_empty: bool = False) -> Tuple[int, ...]:
    """Member ids from the facade's ``members=`` argument: a count N is
    ids ``0..N-1``, an explicit sequence is taken as given."""
    if isinstance(members, (int, np.integer)):
        if members < 1:
            raise ValueError("members must be >= 1")
        return tuple(range(int(members)))
    member_ids = tuple(int(m) for m in members)
    if not member_ids and not allow_empty:
        raise ValueError("members sequence must not be empty")
    if len(set(member_ids)) != len(member_ids):
        raise ValueError("duplicate member ids")
    return member_ids


def member_rng(root_seed: int, member: int) -> Optional[np.random.Generator]:
    """The perturbation stream of one member (None for the control).

    Built from ``SeedSequence(root_seed, spawn_key=(member,))`` so the
    stream depends only on (root seed, member id) — never on batch
    size or on which other members run.
    """
    if member == 0:
        return None
    return np.random.default_rng(
        np.random.SeedSequence(root_seed, spawn_key=(member,))
    )


def build_grids(config: DynamicalCoreConfig,
                n_halo: Optional[int] = None) -> List[CubedSphereGrid]:
    """Build the per-rank geometry once (shared by ensemble members)."""
    from repro.fv3 import constants

    h = constants.N_HALO if n_halo is None else n_halo
    partitioner = CubedSpherePartitioner(config.npx, config.layout)
    return [
        CubedSphereGrid.build(partitioner, rank, n_halo=h)
        for rank in range(partitioner.total_ranks)
    ]


def build_core(
    scenario: Union[str, Scenario],
    config: Optional[DynamicalCoreConfig] = None,
    *,
    member: int = 0,
    seed: int = 0,
    executor: Union[None, str, _ranks.RankExecutor] = None,
    workers: Optional[int] = None,
    resilience: Optional[ResilienceConfig] = None,
    comm_latency: Optional[float] = None,
    max_polls: Optional[int] = None,
    grids: Optional[List[CubedSphereGrid]] = None,
    comm=None,
) -> DynamicalCore:
    """The single source of truth for wiring one member's ranks.

    Examples and benchmarks that used to hand-assemble
    ``DynamicalCoreConfig → DynamicalCore → comm knobs`` call this (or
    :func:`repro.run.run` above it) instead. ``comm_latency`` and
    ``max_polls`` configure the simulated transport exactly like the
    scaling benchmark needs.
    """
    scen = get_scenario(scenario)
    cfg = config if config is not None else scen.default_config()
    ex, _ = resolve_executor(executor, workers, cfg.total_ranks)
    core = DynamicalCore(
        cfg,
        init=scen.initializer(member_rng(seed, member)),
        resilience=resilience,
        executor=ex,
        grids=grids,
        comm=comm,
    )
    if comm_latency is not None:
        core.halo.comm.latency = comm_latency
    if max_polls is not None:
        core.halo.comm.max_polls = max_polls
    return core


def _member_resilience(
    base: Optional[ResilienceConfig], member: int
) -> Optional[ResilienceConfig]:
    """Per-member resilience: periodic checkpoints get their own
    subdirectory so members never overwrite each other's files."""
    if base is None or not base.checkpoint_dir:
        return base
    return dataclasses.replace(
        base,
        checkpoint_dir=str(
            pathlib.Path(base.checkpoint_dir) / f"member{member:03d}"
        ),
    )


@dataclasses.dataclass
class _Member:
    """One member's canonical state (the engine holds only a working
    copy while the member is being stepped)."""

    member: int
    states: List[RankFields]
    resilience: Optional[ResilienceConfig]
    time: float = 0.0
    step_count: int = 0
    mass0: float = 0.0
    tracer0: Optional[float] = None


def _copy_rank(src: RankFields, dst: RankFields) -> None:
    """Copy one rank's swapped fields, preserving ``dst`` array identity
    (compiled programs stay bound to the engine's arrays)."""
    for f in _STATE_FIELDS:
        np.copyto(getattr(dst, f), getattr(src, f))
    for ts, td in zip(src.tracers, dst.tracers):
        np.copyto(td, ts)


def _copy_states(src: Sequence[RankFields], dst: Sequence[RankFields]):
    for s, d in zip(src, dst):
        _copy_rank(s, d)


def _states_from_snapshot(snapshot) -> List[RankFields]:
    """Materialize fresh per-rank :class:`RankFields` from an in-memory
    :class:`~repro.resilience.Snapshot` (used by the serving layer's
    checkpoint-warmed cache — no scenario builder math is re-run)."""
    return [
        RankFields(
            **{name: arr.copy() for name, arr in fields.items()},
            tracers=[t.copy() for t in tracers],
        )
        for fields, tracers in zip(snapshot.arrays, snapshot.tracers)
    ]


class EnsembleDriver:
    """N members of one scenario batched through one engine core.

    ``members`` is either a count (ids ``0..N-1``, 0 = control) or an
    explicit sequence of member ids — ``members=(3,)`` runs member 3
    standalone with exactly the state it would have inside a batch.

    Stepping is *step-major*: every member advances step s before any
    member starts s+1, so all members flow through the engine's hot
    compiled programs and pooled buffers together.

    Membership is dynamic: :meth:`add_member` / :meth:`remove_member`
    let a long-lived driver (the serving layer keeps one warm per
    scenario+config) swap request states through the already-compiled
    engine without paying geometry or compilation again. Pass a warm
    ``engine=`` to adopt an existing core instead of building one.
    """

    def __init__(
        self,
        scenario: Union[str, Scenario],
        config: Optional[DynamicalCoreConfig] = None,
        *,
        members: Union[int, Sequence[int]] = 1,
        seed: int = 0,
        executor: Union[None, str, _ranks.RankExecutor] = None,
        workers: Optional[int] = None,
        resilience: Optional[ResilienceConfig] = None,
        comm_latency: Optional[float] = None,
        max_polls: Optional[int] = None,
        diagnostics: bool = True,
        engine=None,
    ):
        self.scenario = get_scenario(scenario)
        self.config = (
            config if config is not None else self.scenario.default_config()
        )
        member_ids = resolve_members(members, allow_empty=engine is not None)
        self.seed = int(seed)
        self.diagnostics = diagnostics
        self._base_resilience = resilience
        if engine is not None:
            # adopt a warm core: geometry + compiled suite already paid
            if engine.config != self.config:
                raise ValueError(
                    "warm engine was built for a different config "
                    f"({engine.config} != {self.config})"
                )
            self.engine = engine
            self.executor = engine.executor
            self._owns_executor = False
        else:
            self.executor, self._owns_executor = resolve_executor(
                executor, workers, self.config.total_ranks
            )
            # one engine core: its compiled suite serves every member
            with _TRACER.span("ensemble.build_engine"):
                self.engine = build_core(
                    self.scenario,
                    self.config,
                    member=0,
                    seed=self.seed,
                    executor=self.executor,
                    resilience=resilience,
                    comm_latency=comm_latency,
                    max_polls=max_polls,
                )
        self._grid_builds = len(self.engine.grids)
        self._grid_builds_avoided = (
            max(0, len(member_ids) - 1) * self._grid_builds
        )
        self.members: Dict[int, _Member] = {}
        self.history: Dict[int, List[Dict[str, float]]] = {}
        for m in member_ids:
            self.add_member(m)
        self.steps_taken = 0

    @property
    def member_ids(self) -> Tuple[int, ...]:
        """Current member ids, in insertion order."""
        return tuple(self.members)

    # ------------------------------------------------------------------
    # dynamic membership (the serving layer's request slots)
    # ------------------------------------------------------------------
    def add_member(
        self,
        member: int,
        *,
        snapshot=None,
        rng=_UNSET_RNG,
        mass0: Optional[float] = None,
        tracer0: Optional[float] = None,
    ) -> None:
        """Install one member: built fresh from the scenario (seeded by
        this driver's root seed), or — with ``snapshot=`` — materialized
        from a captured :class:`~repro.resilience.Snapshot`, adopting
        its time/step and skipping the builder entirely (pass the
        original run's ``mass0``/``tracer0`` so conservation drift stays
        anchored to the true initial state).

        ``rng`` overrides the perturbation stream (None = unperturbed
        control). The serving layer uses this to install request states
        under service-assigned slot ids while keeping the state a pure
        function of the *request's* (seed, member) — the slot id never
        feeds the numerics."""
        member = int(member)
        if member in self.members:
            raise ValueError(f"member {member} already loaded")
        with _TRACER.span(f"ensemble.build[{member}]"):
            if snapshot is not None:
                states = _states_from_snapshot(snapshot)
                time0, step0 = snapshot.time, snapshot.step
            else:
                if rng is _UNSET_RNG:
                    rng = member_rng(self.seed, member)
                states = [
                    self.scenario.build_state(grid, self.config, rng)
                    for grid in self.engine.grids
                ]
                time0, step0 = 0.0, 0
            self.members[member] = _Member(
                member=member,
                states=states,
                resilience=_member_resilience(self._base_resilience, member),
                time=time0,
                step_count=step0,
            )
        # conservation baselines for the driver-level reference checks
        rec = self._activate(member)
        rec.mass0 = (
            mass0 if mass0 is not None
            else self.engine.global_integral("delp")
        )
        if tracer0 is not None:
            rec.tracer0 = tracer0
        else:
            rec.tracer0 = (
                self.engine.tracer_integral(0)
                if self.config.n_tracers else None
            )
        self.history[member] = []

    def remove_member(self, member: int) -> _Member:
        """Drop one member (its arrays become collectible); returns the
        removed record so a caller may still snapshot it."""
        self.history.pop(member, None)
        try:
            rec = self.members.pop(member)
        except KeyError:
            raise KeyError(f"no member {member} loaded") from None
        self._changed(rec)
        return rec

    def snapshot_member(self, member: int) -> Snapshot:
        """A bit-exact in-memory snapshot of one member's canonical
        state (independent of the engine's working copy)."""
        rec = self.members[member]
        return Snapshot.capture(rec.states, rec.time, rec.step_count)

    # ------------------------------------------------------------------
    # state swap
    # ------------------------------------------------------------------
    def _activate(self, member: int) -> _Member:
        """Load one member's state into the engine's arrays — no copy
        when they already hold exactly that record
        (:attr:`DynamicalCore.resident`)."""
        rec = self.members[member]
        if self.engine.resident is not rec:
            self.engine.resident = None
            _copy_states(rec.states, self.engine.states)
            self.engine.resident = rec
        self.engine.time = rec.time
        self.engine.step_count = rec.step_count
        self.engine.resilience = rec.resilience
        return rec

    def _store(self, member: int) -> None:
        """Copy the engine's (just stepped) state back to the member."""
        rec = self.members[member]
        _copy_states(self.engine.states, rec.states)
        rec.time = self.engine.time
        rec.step_count = self.engine.step_count
        self.engine.resident = rec

    def _changed(self, rec: _Member) -> None:
        """``rec`` is about to differ from what the engine may hold of
        it (or to go away): the next activation copies again."""
        if self.engine.resident is rec:
            self.engine.resident = None

    # ------------------------------------------------------------------
    def step(self, n: int = 1) -> None:
        """Advance every member ``n`` physics steps, step-major."""
        for _ in range(n):
            with _TRACER.span("ensemble.step"):
                self.step_selected(self.member_ids)
            self.steps_taken += 1

    def step_selected(self, members: Sequence[int], n: int = 1) -> None:
        """Advance only ``members`` by ``n`` steps, step-major.

        The serving layer batches requests with different lead times
        through one warm driver: each sweep advances exactly the
        requests that still have steps left (finished or cancelled ones
        drop out), without touching the driver-global ``steps_taken``
        that the classic whole-ensemble path reports."""
        for _ in range(n):
            for m in members:
                with _TRACER.span(f"member[{m}]"):
                    self._activate(m)
                    self.engine.step_dynamics()
                    if self.diagnostics:
                        self.history[m].append(self._diagnose(m))
                    self._store(m)

    def member_report(self, member: int) -> Dict[str, object]:
        """One member's current summary + conservation drift (loads the
        member into the engine; used by the serving response path)."""
        rec = self._activate(member)
        report: Dict[str, object] = {
            "member": member,
            "step": rec.step_count,
            "time": rec.time,
            "summary": dict(self.engine.state_summary()),
            "mass_drift": self._mass_drift_loaded(member),
        }
        drift = self._tracer_drift_loaded(member)
        if drift is not None:
            report["tracer_drift"] = drift
        return report

    def _diagnose(self, member: int) -> Dict[str, float]:
        """Summarize the loaded member from the engine's state."""
        entry = dict(self.engine.state_summary())
        entry["step"] = self.engine.step_count
        entry["mass_drift"] = self._mass_drift_loaded(member)
        drift = self._tracer_drift_loaded(member)
        if drift is not None:
            entry["tracer_drift"] = drift
        return entry

    def _mass_drift_loaded(self, member: int) -> float:
        mass0 = self.members[member].mass0
        return (self.engine.global_integral("delp") - mass0) / mass0

    def _tracer_drift_loaded(self, member: int) -> Optional[float]:
        t0 = self.members[member].tracer0
        if not t0:
            return None
        return (self.engine.tracer_integral(0) - t0) / t0

    def mass_drift(self, member: int) -> float:
        self._activate(member)
        return self._mass_drift_loaded(member)

    def tracer_drift(self, member: int) -> Optional[float]:
        self._activate(member)
        return self._tracer_drift_loaded(member)

    # ------------------------------------------------------------------
    def reference_check(self, member: Optional[int] = None
                        ) -> Dict[int, List[str]]:
        """Scenario checks plus conservation tolerances, per member."""
        targets = self.member_ids if member is None else (member,)
        out: Dict[int, List[str]] = {}
        for m in targets:
            self._activate(m)
            violations = self.scenario.reference_check(
                self.engine, self.steps_taken
            )
            tol = self.scenario.mass_drift_tol
            if tol is not None:
                drift = self._mass_drift_loaded(m)
                if abs(drift) > tol:
                    violations.append(
                        f"mass drift {drift:+.2e} exceeds {tol:.0e}"
                    )
            ttol = self.scenario.tracer_drift_tol
            tdrift = self._tracer_drift_loaded(m)
            if ttol is not None and tdrift is not None:
                if abs(tdrift) > ttol:
                    violations.append(
                        f"tracer mass drift {tdrift:+.2e} exceeds "
                        f"{ttol:.0e}"
                    )
            out[m] = violations
        return out

    # ------------------------------------------------------------------
    # per-member checkpoint/restart (repro.resilience underneath)
    # ------------------------------------------------------------------
    def checkpoint_member(self, member: int, path=None) -> pathlib.Path:
        """Write one member's versioned on-disk checkpoint."""
        rec = self.members[member]
        if path is None:
            res = rec.resilience
            if res is None or not res.checkpoint_dir:
                raise ValueError(
                    "no path given and no checkpoint_dir configured"
                )
            path = (
                pathlib.Path(res.checkpoint_dir)
                / f"ckpt_step{rec.step_count:06d}.npz"
            )
        return save_checkpoint(
            path, rec.states, rec.time, rec.step_count,
            extra_meta={
                "npx": self.config.npx, "npz": self.config.npz,
                "layout": self.config.layout, "member": member,
                "scenario": self.scenario.name,
            },
        )

    def restore_member(self, member: int, path) -> Dict[str, object]:
        """Restore one member from a checkpoint file (the other
        members are untouched)."""
        rec = self.members[member]
        self._changed(rec)
        meta = load_checkpoint(path, rec.states)
        rec.time = float(meta["time"])
        rec.step_count = int(meta["step"])
        return meta

    # ------------------------------------------------------------------
    def _record_amortization(self, steps: int, seconds: float,
                             cache0: Dict, pool0: Dict) -> Dict[str, int]:
        """What one run saved, as deltas of the compile-cache and pool
        counters since ``cache0``/``pool0`` (also folded into the obs
        footer's ``ensemble:`` totals)."""
        cache = _compile_cache.COUNTERS.since(cache0)
        amortization = {
            "members": len(self.member_ids),
            "grid_builds": self._grid_builds,
            "grid_builds_avoided": self._grid_builds_avoided,
            "compile_hits": cache["hits"],
            "compile_misses": cache["misses"],
            "program_traces": cache["program_traces"],
            "program_binds": cache["program_binds"],
            "pool_reuse_hits":
                get_pool().counters.since(pool0)["reuse_hits"],
        }
        # one run, folded whole (names that are not ensemble counters —
        # the program counts — are not the set's to take)
        _metrics.COUNTERS.merge({
            **amortization, "runs": 1, "seconds": seconds,
            "member_steps": steps * len(self.member_ids),
        })
        return amortization

    def run(self, steps: int, check: bool = True) -> RunResult:
        """Step all members and assemble the structured result."""
        cache0 = _compile_cache.stats()
        pool0 = get_pool().stats()
        t0 = time.perf_counter()
        with _TRACER.span("ensemble.run"):
            self.step(steps)
        seconds = time.perf_counter() - t0
        amortization = self._record_amortization(
            steps, seconds, cache0, pool0
        )
        return self._result(seconds, amortization, check,
                            repr(self.engine.executor))

    def _result(self, seconds: float, amortization: Dict[str, int],
                check: bool, executor: str) -> RunResult:
        """The structured result of the members as they stand (stepped
        here, or gathered from rank worker processes)."""
        checks = (
            self.reference_check() if check
            else {m: [] for m in self.member_ids}
        )
        members = []
        for m in self.member_ids:
            self._activate(m)
            members.append(MemberResult(
                member=m,
                steps=self.steps_taken,
                summary=self.engine.state_summary(),
                mass_drift=self._mass_drift_loaded(m),
                tracer_drift=self._tracer_drift_loaded(m),
                check_violations=checks[m],
                history=list(self.history[m]),
                states=self.members[m].states,
            ))
        return RunResult(
            scenario=self.scenario.name,
            config=self.config,
            steps=self.steps_taken,
            seed=self.seed,
            members=members,
            seconds=seconds,
            executor=executor,
            amortization=amortization,
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    def close(self, strict: bool = False) -> None:
        """Drain the engine's halo machinery; shut down an owned
        executor (member states stay inspectable afterwards)."""
        self.engine.finalize(strict=strict)
        if self._owns_executor and self.executor is not None:
            self.executor.shutdown()

    def __enter__(self) -> "EnsembleDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
