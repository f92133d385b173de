"""``repro.run.run(..., executor="processes")`` — the parent side.

Launches a :class:`~repro.runtime.procs.ProcessRankExecutor` fleet over
the scenario, then reassembles a :class:`~repro.run.results.RunResult`
that is **bit-identical** to the sequential and threaded executors':

- The parent builds the same :class:`~repro.run.driver.EnsembleDriver`
  a sequential run would (engine core, member states, conservation
  baselines) but never steps it. Workers replay the identical builders,
  step only their own ranks, and ship the stepped blocks back; the
  parent copies them into its member records and computes the final
  summaries, drifts and reference checks through the very same engine
  code path a sequential run uses.
- Per-step diagnostics are folded from per-rank *partials*: each worker
  reports the exact per-rank summand of the engine's conservation folds
  (``global_integral`` et al.), and the parent re-runs the fold in rank
  order starting from 0.0 — the identical left-to-right float addition
  sequence, hence identical history entries.
- Worker-side conservation baselines are cross-checked against the
  parent's (exact equality): a worker whose replica diverged from the
  parent's member build fails the run loudly instead of silently
  producing a different ensemble.

``resilience=`` is rejected here: chaos occurrence counters and
rollback snapshots are per-process state, and splitting them across
workers would silently change which occurrences fire relative to the
single-process schedule.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import tracer as _obs
from repro.run.driver import EnsembleDriver, _copy_rank
from repro.run.results import MemberResult, RunResult
from repro.runtime import compile_cache as _compile_cache
from repro.runtime.pool import get_pool
from repro.runtime.procs import ProcessRankExecutor, WorkerSpec

__all__ = ["run_processes"]

#: default receive absence budget under processes (seconds = polls *
#: 0.05): sibling workers may spend seconds in first-step compilation
#: while our receives are already posted, so the threaded default (0.4s)
#: is far too twitchy for a cold fleet
_DEFAULT_MAX_POLLS = 1200


def _transport_sizing(engine, config) -> Tuple[int, int]:
    """(slot_bytes, n_slots) from the parent engine's halo plans.

    Slot capacity covers the largest single boundary message (widest
    plan × npz levels × 8 bytes, doubled for headroom); the slot count
    covers every (exchange plan × concurrent field slot) pair that can
    be in flight at once across both phases, doubled so cross-member
    pipelining never queues on mailbox capacity.
    """
    halo = engine.halo
    max_cells = 1
    plan_count = 0
    for rank in range(engine.partitioner.total_ranks):
        for phase in (0, 1):
            for plan in halo.plans[rank][phase]:
                max_cells = max(max_cells, plan.cells)
                plan_count += 1
    slot_bytes = max(4096, max_cells * max(1, config.npz) * 8 * 2)
    fields = max(5, 2 + config.n_tracers)
    n_slots = min(4096, max(64, plan_count * fields * 2))
    return slot_bytes, n_slots


def _fold_partials(ranked: Dict[int, float], n_ranks: int) -> float:
    """Re-run the engine's conservation fold: 0.0 + p0 + p1 + ... in
    rank order — the same float addition sequence, bit for bit."""
    total = 0.0
    for rank in range(n_ranks):
        total += ranked[rank]
    return total


def _merge_history(
    worker_histories: List[Dict[int, List[Dict[str, object]]]],
    member: int,
    n_ranks: int,
    mass0: float,
    tracer0: Optional[float],
) -> List[Dict[str, float]]:
    """Fold the workers' per-rank partial diagnostics into the entries
    ``EnsembleDriver._diagnose`` would have recorded."""
    per_worker = [wh.get(member, []) for wh in worker_histories]
    n_steps = min((len(entries) for entries in per_worker), default=0)
    merged: List[Dict[str, float]] = []
    for i in range(n_steps):
        rows = [entries[i] for entries in per_worker]
        mass_parts: Dict[int, float] = {}
        wind_parts: Dict[int, float] = {}
        w_parts: Dict[int, float] = {}
        tracer_parts: Dict[int, Optional[float]] = {}
        for row in rows:
            mass_parts.update(row["mass"])
            wind_parts.update(row["max_wind"])
            w_parts.update(row["max_w"])
            tracer_parts.update(row["tracer"])
        mass = _fold_partials(mass_parts, n_ranks)
        entry: Dict[str, float] = {
            "time": rows[0]["time"],
            "mass": mass,
            "max_wind": max(
                wind_parts[rank] for rank in range(n_ranks)
            ),
            "max_w": max(w_parts[rank] for rank in range(n_ranks)),
            "step": rows[0]["step"],
            "mass_drift": (mass - mass0) / mass0,
        }
        if tracer0:
            entry["tracer_drift"] = (
                _fold_partials(tracer_parts, n_ranks) - tracer0
            ) / tracer0
        merged.append(entry)
    return merged


def _check_baselines(
    driver: EnsembleDriver,
    ready: List[Dict[str, object]],
    n_ranks: int,
) -> None:
    """Exact-equality cross-check of worker replica baselines against
    the parent's member builds — catches a worker whose deterministic
    replay diverged (environment skew, registry drift) before any
    stepping happens."""
    mass_parts: Dict[int, Dict[int, float]] = {}
    tracer_parts: Dict[int, Dict[int, float]] = {}
    for payload in ready:
        for member, ranked in payload["mass0"].items():
            mass_parts.setdefault(member, {}).update(ranked)
        for member, ranked in payload["tracer0"].items():
            tracer_parts.setdefault(member, {}).update(ranked)
    for member, rec in driver.members.items():
        mass0 = _fold_partials(mass_parts[member], n_ranks)
        if mass0 != rec.mass0:
            raise RuntimeError(
                f"worker replica of member {member} diverged from the "
                f"parent build: initial mass {mass0!r} != {rec.mass0!r}"
            )
        if rec.tracer0 is not None:
            tracer0 = _fold_partials(tracer_parts[member], n_ranks)
            if tracer0 != rec.tracer0:
                raise RuntimeError(
                    f"worker replica of member {member} diverged from "
                    f"the parent build: initial tracer mass "
                    f"{tracer0!r} != {rec.tracer0!r}"
                )


def run_processes(
    scenario,
    config=None,
    steps: int = 1,
    *,
    members: Union[int, Sequence[int]] = 1,
    seed: int = 0,
    executor: Optional[ProcessRankExecutor] = None,
    workers: Optional[int] = None,
    resilience=None,
    comm_latency: Optional[float] = None,
    max_polls: Optional[int] = None,
    diagnostics: bool = True,
    check: bool = True,
) -> RunResult:
    """Run a scenario on the process-based rank executor (the
    ``executor="processes"`` branch of :func:`repro.run.run`)."""
    if resilience is not None:
        raise ValueError(
            "resilience= is not supported with executor='processes': "
            "chaos occurrence counters and rollback snapshots are "
            "per-process and would diverge from the single-process "
            "fault schedule; run chaos/rollback experiments on "
            "executor='sequential' or 'threads'"
        )
    # the parent driver builds engine + member states + conservation
    # baselines exactly like a sequential run, but is never stepped —
    # it exists to (a) size the transport, (b) receive the stepped
    # states and (c) run the summaries/checks through the engine path
    driver = EnsembleDriver(
        scenario,
        config,
        members=members,
        seed=seed,
        executor="sequential",
        diagnostics=diagnostics,
    )
    pex = executor if executor is not None else ProcessRankExecutor(
        workers=workers
    )
    owns_pex = executor is None
    tracer = _obs.get_tracer()
    try:
        n_ranks = driver.config.total_ranks
        slot_bytes, n_slots = _transport_sizing(driver.engine, driver.config)
        spec = WorkerSpec(
            scenario=driver.scenario.name,
            config=driver.config,
            seed=driver.seed,
            member_ids=driver.member_ids,
            comm_latency=comm_latency,
            max_polls=max_polls if max_polls is not None
            else _DEFAULT_MAX_POLLS,
            diagnostics=diagnostics,
            trace=tracer.enabled,
        )
        cache0 = _compile_cache.stats()
        pool0 = get_pool().stats()
        with tracer.span("ensemble.launch_workers") as sp:
            ready = pex.launch(spec, n_ranks, slot_bytes, n_slots)
            sp.set("workers", len(ready))
        _check_baselines(driver, ready, n_ranks)
        t0 = time.perf_counter()
        with tracer.span("ensemble.run"):
            pex.step(steps)
        seconds = time.perf_counter() - t0
        collected = pex.collect()
        reports = pex.collect_reports()
    except BaseException:
        if owns_pex:
            pex.close()
        raise
    # fold the stepped blocks back into the parent's member records
    worker_histories: List[Dict[int, List[Dict[str, object]]]] = []
    for payload in collected:
        histories: Dict[int, List[Dict[str, object]]] = {}
        for member, record in payload["members"].items():
            rec = driver.members[member]
            for rank, fields in record["states"].items():
                _copy_rank(fields, rec.states[rank])
            rec.time = record["time"]
            rec.step_count = record["step"]
            histories[member] = record["history"]
        worker_histories.append(histories)
    driver.steps_taken = steps
    for member, rec in driver.members.items():
        driver.history[member] = _merge_history(
            worker_histories, member, n_ranks, rec.mass0, rec.tracer0
        )
    # merge worker observability before the amortization deltas, so the
    # compile counters in the result cover the whole process tree
    from repro.runtime import procs as _procs

    _procs.fold_worker_reports(reports)
    amortization = driver._record_amortization(steps, seconds, cache0, pool0)
    executor_repr = repr(pex)
    if owns_pex:
        pex.close()
    try:
        checks = (
            driver.reference_check() if check
            else {m: [] for m in driver.member_ids}
        )
        member_results = []
        for m in driver.member_ids:
            driver._activate(m)
            member_results.append(MemberResult(
                member=m,
                steps=driver.steps_taken,
                summary=driver.engine.state_summary(),
                mass_drift=driver._mass_drift_loaded(m),
                tracer_drift=driver._tracer_drift_loaded(m),
                check_violations=checks[m],
                history=list(driver.history[m]),
                states=driver.members[m].states,
            ))
        return RunResult(
            scenario=driver.scenario.name,
            config=driver.config,
            steps=driver.steps_taken,
            seed=driver.seed,
            members=member_results,
            seconds=seconds,
            executor=executor_repr,
            amortization=amortization,
            engine=driver.engine,
        )
    finally:
        driver.close()
