"""The batched ensemble driver and the single-core factory.

``EnsembleDriver`` owns N members of one scenario and steps them all
through **one** engine :class:`~repro.fv3.dyncore.DynamicalCore`. Every
compiled program is bound to the engine's arrays, so those arrays are
the storage of whichever member is *resident*
(:attr:`DynamicalCore.resident`): it is stepped in place, and a step
copies nothing. The engine is built from the first member's initial
state, which that member then owns. Loading another member is one swap
(:func:`_load`): the resident member is copied out into spare arrays the
engine keeps (allocated at its first eviction only) and the incoming one
copied in (``np.copyto``, preserving array identity), whose own arrays
become the spare. Because the engine is shared, the per-member fixed
costs are paid exactly once for the whole ensemble:

- the cubed-sphere geometry is built once;
- the whole stencil suite is orchestrated and compiled once (the
  content-hash compile cache sees one engine, so the batched run's
  compile misses equal a single run's, not N times them);
- scratch is the engine executor's slabs (:mod:`repro.runtime.pool`),
  sized once, instead of being allocated per member.

This swap is bit-exact by the same argument the rollback/retry loop
rests on: a remapping step re-advanced from a restored
:class:`~repro.resilience.Snapshot` (arrays + time + step) finishes
bit-identical, i.e. the engine holds no live cross-step state outside
the swapped fields. The ensemble determinism tests pin this down.

A step that raises leaves the resident member's only copy half-stepped:
the member is *lost*, and stepping, reporting, snapshotting or
checkpointing it raises :class:`~repro.resilience.MemberLostError` until
:meth:`EnsembleDriver.restore_member` or
:meth:`EnsembleDriver.remove_member`.

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
from repro.resilience import MemberLostError, ResilienceConfig, Snapshot, \
    load_checkpoint, save_checkpoint
from repro.run import metrics as _metrics
from repro.run.results import MemberResult, RunResult
from repro.runtime import compile_cache as _compile_cache
from repro.runtime import ranks as _ranks
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
    core's default (lockstep); ``owned`` means the caller is
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
    scaling benchmark needs. The core's arrays hold ``member``'s initial
    state until it steps (``DynamicalCore.initial``); a driver record
    drawn from the same stream takes them instead of building its own.
    """
    scen = get_scenario(scenario)
    cfg = config if config is not None else scen.default_config()
    ex, _ = resolve_executor(executor, workers, cfg.total_ranks)
    rng = member_rng(seed, member)
    initial = _stream(scen, rng)
    core = DynamicalCore(
        cfg,
        init=scen.initializer(rng),
        resilience=resilience,
        executor=ex,
        grids=grids,
        comm=comm,
    )
    # the first member drawn from this stream takes these arrays
    core.initial = initial
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
    """One member's state and clock. ``states`` is the record's own
    list; while the member is resident (``engine.resident is`` it) its
    entries are the engine's :class:`RankFields`, otherwise arrays of the
    member's own — a swap replaces the entries, so whoever holds the list
    sees the member's state wherever it lives."""

    member: int
    states: List[Optional[RankFields]]
    resilience: Optional[ResilienceConfig] = None
    time: float = 0.0
    step_count: int = 0
    mass0: float = 0.0
    tracer0: Optional[float] = None
    #: a step raised part-way through ``states`` (see ``MemberLostError``)
    lost: bool = False


def _stream(scenario: Scenario, rng: Optional[np.random.Generator]):
    """What a member's initial state is a function of, beside the
    config: the scenario and the position of its perturbation stream."""
    return scenario, (None if rng is None else rng.bit_generator.state)


def _copy_rank(src: RankFields, dst: RankFields) -> None:
    """Copy one rank's swapped fields, preserving ``dst`` array identity
    (compiled programs stay bound to the engine's arrays)."""
    for f in _STATE_FIELDS:
        np.copyto(getattr(dst, f), getattr(src, f))
    for ts, td in zip(src.tracers, dst.tracers):
        np.copyto(td, ts)


def _copy_states(src: Sequence[Optional[RankFields]],
                 dst: Sequence[Optional[RankFields]]) -> None:
    """Copy every held rank (``None``: a rank held elsewhere)."""
    for s, d in zip(src, dst):
        if d is not None:
            _copy_rank(s, d)


def _empty_like(states: Sequence[Optional[RankFields]]):
    return [
        None if s is None else RankFields(
            **{f: np.empty_like(getattr(s, f)) for f in _STATE_FIELDS},
            tracers=[np.empty_like(t) for t in s.tracers],
        )
        for s in states
    ]


def _new_member(engine: DynamicalCore, scenario: Scenario, member: int,
                rng: Optional[np.random.Generator],
                resilience: Optional[ResilienceConfig] = None) -> _Member:
    """A record holding the initial state ``rng`` draws on the ranks the
    engine holds. While the engine's arrays still hold exactly that
    state (``build_core`` drew them from the same stream and nothing has
    changed them since) the record takes them and is resident; otherwise
    it is built."""
    if engine.initial is not None and engine.initial == _stream(scenario,
                                                                rng):
        rec = _Member(member, list(engine.states), resilience)
        engine.initial, engine.resident = None, rec
        return rec
    init = scenario.initializer(rng)
    states = engine.halo.comm.per_rank(
        lambda rank: init(engine.grids[rank], engine.config)
    )
    return _Member(member, states, resilience)


def _load(engine: DynamicalCore, rec: Optional[_Member]) -> None:
    """The one swap: make the engine's arrays ``rec``'s storage
    (``None``: nobody's) and set the engine's clock to ``rec``'s.

    The member resident so far is copied out into the engine's spare
    arrays, which it keeps (they are allocated at the first eviction
    only); ``rec`` is copied in, and the arrays it leaves become the
    spare. Two copies a swap, none for the resident member and no
    allocation after the first eviction (``state_copies_in`` /
    ``state_copies_out``). A lost member is never loaded."""
    if rec is not None and rec.lost:
        raise MemberLostError(rec.member)
    out = engine.resident
    if out is not rec and out is not None:
        storage = engine.spare or _empty_like(engine.states)
        engine.spare = None
        _copy_states(engine.states, storage)
        out.states[:] = storage
        engine.resident = None
        _metrics.COUNTERS.add("state_copies_out")
    if rec is None:
        return
    if engine.resident is not rec:
        _copy_states(rec.states, engine.states)
        engine.spare = list(rec.states)
        rec.states[:] = engine.states
        engine.initial, engine.resident = None, rec
        _metrics.COUNTERS.add("state_copies_in")
    engine.time = rec.time
    engine.step_count = rec.step_count
    engine.resilience = rec.resilience


def _resident_first(engine: DynamicalCore,
                    members: Sequence[int]) -> List[int]:
    """``members`` in the order a pass over them swaps least: the one
    resident in ``engine``, if it is among them, first."""
    rec = engine.resident
    if rec is None or rec.member not in members:
        return list(members)
    return [rec.member, *(m for m in members if m != rec.member)]


def _step(engine: DynamicalCore, rec: _Member) -> None:
    """Advance ``rec`` one step in the engine's arrays. A step that
    raises has half-stepped its only copy: the member is lost."""
    _load(engine, rec)
    try:
        engine.step_dynamics()
    except BaseException:
        rec.lost = True
        raise
    rec.time = engine.time
    rec.step_count = engine.step_count


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
    ``engine=`` to adopt an existing core instead of building one; any
    number of drivers may share it, each loading its own records.
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
            self._owns_engine = False
        else:
            self._owns_engine = True
            self.executor, self._owns_executor = resolve_executor(
                executor, workers, self.config.total_ranks
            )
            # one engine core: its compiled suite serves every member,
            # and its arrays hold (and become) the first member's state
            with _TRACER.span("ensemble.build_engine"):
                self.engine = build_core(
                    self.scenario,
                    self.config,
                    member=member_ids[0],
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
        adopt: bool = False,
        rng=_UNSET_RNG,
        mass0: Optional[float] = None,
        tracer0: Optional[float] = None,
    ) -> None:
        """Install one member: built fresh from the scenario (seeded by
        this driver's root seed), or — with ``snapshot=`` — materialized
        from a captured :class:`~repro.resilience.Snapshot` or a
        :class:`~repro.resilience.PackedSnapshot` (unpacked straight into
        the member's new arrays), adopting its time/step and skipping
        the builder entirely (pass the
        original run's ``mass0``/``tracer0`` so conservation drift stays
        anchored to the true initial state). With ``adopt=True`` the
        :class:`~repro.resilience.Snapshot`'s own arrays become the
        member's storage, not a copy of them: for a caller that gives
        them up (a warm start unpacked before the driver's lock).

        ``rng`` overrides the perturbation stream (None = unperturbed
        control). The serving layer uses this to install request states
        under service-assigned slot ids while keeping the state a pure
        function of the *request's* (seed, member) — the slot id never
        feeds the numerics."""
        member = int(member)
        if member in self.members:
            raise ValueError(f"member {member} already loaded")
        with _TRACER.span(f"ensemble.build[{member}]"):
            resilience = _member_resilience(self._base_resilience, member)
            if snapshot is not None:
                arrays, tracers = (
                    (snapshot.arrays, snapshot.tracers) if adopt
                    else snapshot.materialize()
                )
                states = [
                    RankFields(**fields, tracers=ts)
                    for fields, ts in zip(arrays, tracers)
                ]
                rec = _Member(member, states, resilience,
                              time=snapshot.time, step_count=snapshot.step)
            else:
                if rng is _UNSET_RNG:
                    rng = member_rng(self.seed, member)
                rec = _new_member(self.engine, self.scenario, member, rng,
                                  resilience=resilience)
            self.members[member] = rec
        # conservation baselines for the driver-level reference checks
        n_tracers = self.config.n_tracers
        if mass0 is None or (tracer0 is None and n_tracers):
            self._activate(member)
        rec.mass0 = (
            mass0 if mass0 is not None
            else self.engine.global_integral("delp")
        )
        rec.tracer0 = (
            tracer0 if tracer0 is not None
            else self.engine.tracer_integral(0) if n_tracers else None
        )
        self.history[member] = []

    def remove_member(self, member: int) -> _Member:
        """Drop one member; returns its record, which keeps the member's
        state for a caller who still wants it. The resident member is
        detached first (copied out of the engine's arrays), so what the
        record holds never changes with the next member's steps."""
        try:
            rec = self.members.pop(member)
        except KeyError:
            raise KeyError(f"no member {member} loaded") from None
        self.history.pop(member, None)
        if self.engine.resident is rec:
            _load(self.engine, None)
        return rec

    def snapshot_member(self, member: int) -> Snapshot:
        """A bit-exact in-memory snapshot of one member's state
        (independent of the engine's arrays and of later steps)."""
        rec = self._record(member)
        return Snapshot.capture(rec.states, rec.time, rec.step_count)

    # ------------------------------------------------------------------
    # state swap
    # ------------------------------------------------------------------
    def _record(self, member: int) -> _Member:
        rec = self.members[member]
        if rec.lost:
            raise MemberLostError(member)
        return rec

    def _activate(self, member: int) -> _Member:
        """Make one member resident in the engine (no copy when it is
        already, :attr:`DynamicalCore.resident`)."""
        rec = self.members[member]
        _load(self.engine, rec)
        return rec

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
        that the classic whole-ensemble path reports. A sweep starts
        with the member left resident, so it swaps one member fewer."""
        for _ in range(n):
            for m in _resident_first(self.engine, members):
                with _TRACER.span(f"member[{m}]"):
                    _step(self.engine, self.members[m])
                    if self.diagnostics:
                        self.history[m].append(self._diagnose(m))

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
        rec = self._record(member)
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
        """Restore one member from a checkpoint file, in place (into the
        engine's arrays if it is resident; the other members are
        untouched). A lost member is usable again."""
        rec = self.members[member]
        meta = load_checkpoint(path, rec.states)
        rec.time = float(meta["time"])
        rec.step_count = int(meta["step"])
        rec.lost = False
        return meta

    # ------------------------------------------------------------------
    def _record_amortization(self, steps: int, seconds: float,
                             cache0: Dict) -> Dict[str, int]:
        """What one run saved, as deltas of the compile-cache counters
        since ``cache0`` (also folded into the obs footer's
        ``ensemble:`` totals)."""
        cache = _compile_cache.COUNTERS.since(cache0)
        amortization = {
            "members": len(self.member_ids),
            "grid_builds": self._grid_builds,
            "grid_builds_avoided": self._grid_builds_avoided,
            "compile_hits": cache["hits"],
            "compile_misses": cache["misses"],
            "program_traces": cache["program_traces"],
            "program_binds": cache["program_binds"],
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
        t0 = time.perf_counter()
        with _TRACER.span("ensemble.run"):
            self.step(steps)
        seconds = time.perf_counter() - t0
        amortization = self._record_amortization(steps, seconds, cache0)
        return self._result(seconds, amortization, check,
                            repr(self.engine.executor))

    def _result(self, seconds: float, amortization: Dict[str, int],
                check: bool, executor: str) -> RunResult:
        """The structured result of the members as they stand (stepped
        here, or gathered from rank worker processes): each member is
        loaded once, for its checks and its summary, the resident one
        first; they are listed in :attr:`member_ids` order."""
        members = {}
        for m in _resident_first(self.engine, self.member_ids):
            rec = self._activate(m)
            members[m] = MemberResult(
                member=m,
                steps=self.steps_taken,
                summary=self.engine.state_summary(),
                mass_drift=self._mass_drift_loaded(m),
                tracer_drift=self._tracer_drift_loaded(m),
                check_violations=self.reference_check(m)[m] if check
                else [],
                history=list(self.history[m]),
                states=rec.states,
            )
        return RunResult(
            scenario=self.scenario.name,
            config=self.config,
            steps=self.steps_taken,
            seed=self.seed,
            members=[members[m] for m in self.member_ids],
            seconds=seconds,
            executor=executor,
            amortization=amortization,
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    def close(self, strict: bool = False) -> None:
        """Drain the engine's halo machinery; shut down an owned
        executor and release an owned engine's step machinery
        (:meth:`DynamicalCore.release`: modules, workspaces, bound
        programs). Member states, the grids and the halo updater stay
        inspectable afterwards; an engine passed in as ``engine=`` is
        its owner's and keeps everything."""
        self.engine.finalize(strict=strict)
        if self._owns_executor and self.executor is not None:
            self.executor.shutdown()
        if self._owns_engine:
            self.engine.release()

    def __enter__(self) -> "EnsembleDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
