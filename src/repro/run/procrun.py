"""``repro.run.run(..., executor="processes")`` — the parent side.

Launches a :class:`~repro.runtime.procs.ProcessRankExecutor` fleet over
the scenario, then reassembles a :class:`~repro.run.results.RunResult`
that is **bit-identical** to the sequential and threaded executors':

- **Launch, then build.** The transport is sized from the partitioner's
  halo plans alone and the workers are started first; only then does the
  parent build the :class:`~repro.run.driver.EnsembleDriver` a
  sequential run would (engine core, member states, conservation
  baselines), while the workers build their blocks. A forked worker
  therefore never inherits this run's parent-side state, and fork and
  spawn take the same path. The parent's driver is never stepped (its
  engine builds no step machinery, ``DynamicalCore.prepare``): it
  receives the stepped blocks — raw frames written straight into its
  member records — and computes the final summaries, drifts and
  reference checks through the very same engine code path a sequential
  run uses.
- Per-step diagnostics are folded from per-rank *partials*: each worker
  reports the exact per-rank summand of the engine's conservation folds
  (``global_integral`` et al.), and the parent re-runs the fold in rank
  order starting from 0.0 — the identical left-to-right float addition
  sequence, hence identical history entries.
- Worker-side conservation baselines are cross-checked against the
  parent's (exact equality): a worker whose block diverged from the
  parent's member build fails the run loudly instead of silently
  producing a different ensemble.
- One ``try``/``finally`` owns the fleet and the driver: whatever fails
  after the launch — the parent's build, a worker's, the baseline check,
  a step — the workers are stopped, the shared-memory segment is
  unlinked and the driver's halo machinery is finalized.

``resilience=`` is rejected here: chaos occurrence counters and
rollback snapshots are per-process state, and splitting them across
workers would silently change which occurrences fire relative to the
single-process schedule.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.fv3.halo import HaloUpdater
from repro.fv3.partitioner import CubedSpherePartitioner
from repro.obs import tracer as _obs
from repro.run.driver import EnsembleDriver, resolve_members
from repro.run.results import RunResult
from repro.runtime import compile_cache as _compile_cache
from repro.runtime import procs as _procs
from repro.runtime.procs import ProcessRankExecutor, WorkerSpec
from repro.scenarios import get_scenario

__all__ = ["run_processes"]

#: default receive absence budget under processes (seconds = polls *
#: 0.05): sibling workers may spend seconds in first-step compilation
#: while our receives are already posted, so the threaded default (0.4s)
#: is far too twitchy for a cold fleet
_DEFAULT_MAX_POLLS = 1200

#: halo exchanges a rank has in flight at once (the winds and the
#: transported scalars of an acoustic sub-step)
_CONCURRENT_EXCHANGES = 2


def _transport_sizing(partitioner, config) -> Tuple[int, int]:
    """(slot_bytes, n_slots) from the decomposition's halo plans.

    A message carries every field of its exchange, so a slot holds the
    largest packed payload: the widest plan × npz levels × the most
    fields one exchange carries (δp/pt/w, or δp plus every tracer) × 8
    bytes. The slot count covers one message on every (plan, exchange)
    key of the exchanges in flight at once — the winds and the scalars
    of a sub-step; a post to an occupied key blocks — doubled for
    headroom.
    """
    schedule = HaloUpdater(partitioner).comm_schedule()
    max_cells = max(cells for *_, cells in schedule)
    fields = max(3, 1 + config.n_tracers)
    slot_bytes = max(4096, max_cells * max(1, config.npz) * fields * 8)
    n_slots = min(4096, max(64, len(schedule) * _CONCURRENT_EXCHANGES * 2))
    return slot_bytes, n_slots


def _fold_partials(ranked: Dict[int, float], n_ranks: int) -> float:
    """Re-run the engine's conservation fold: 0.0 + p0 + p1 + ... in
    rank order — the same float addition sequence, bit for bit."""
    total = 0.0
    for rank in range(n_ranks):
        total += ranked[rank]
    return total


def _merge_history(
    worker_histories: List[List[Dict[str, object]]],
    n_ranks: int,
    mass0: float,
    tracer0: Optional[float],
) -> List[Dict[str, float]]:
    """Fold one member's per-rank partial diagnostics, as each worker
    recorded them step by step, into the entries
    ``EnsembleDriver._diagnose`` would have recorded."""
    merged: List[Dict[str, float]] = []
    for rows in zip(*worker_histories):
        parts: Dict[str, Dict[int, float]] = {
            key: {} for key in ("mass", "max_wind", "max_w", "tracer")
        }
        for row in rows:
            for key, ranked in parts.items():
                ranked.update(row[key])
        mass = _fold_partials(parts["mass"], n_ranks)
        entry: Dict[str, float] = {
            "time": rows[0]["time"],
            "mass": mass,
            "max_wind": max(parts["max_wind"][r] for r in range(n_ranks)),
            "max_w": max(parts["max_w"][r] for r in range(n_ranks)),
            "step": rows[0]["step"],
            "mass_drift": (mass - mass0) / mass0,
        }
        if tracer0:
            entry["tracer_drift"] = (
                _fold_partials(parts["tracer"], n_ranks) - tracer0
            ) / tracer0
        merged.append(entry)
    return merged


def _check_baselines(
    driver: EnsembleDriver,
    ready: List[Dict[str, object]],
    n_ranks: int,
) -> None:
    """Exact-equality cross-check of the workers' baselines against the
    parent's member builds — catches a worker whose deterministic build
    diverged (environment skew, registry drift) before any stepping
    happens."""
    for member, rec in driver.members.items():
        for key, what, mine in (
            ("mass0", "mass", rec.mass0),
            ("tracer0", "tracer mass", rec.tracer0),
        ):
            if mine is None:
                continue
            ranked: Dict[int, float] = {}
            for payload in ready:
                ranked.update(payload[key][member])
            theirs = _fold_partials(ranked, n_ranks)
            if theirs != mine:
                raise RuntimeError(
                    f"worker build of member {member} diverged from the "
                    f"parent build: initial {what} {theirs!r} != {mine!r}"
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
    scenario = get_scenario(scenario)
    config = config if config is not None else scenario.default_config()
    members = resolve_members(members)
    n_ranks = config.total_ranks
    tracer = _obs.get_tracer()
    spec = WorkerSpec(
        scenario=scenario.name,
        config=config,
        seed=int(seed),
        member_ids=members,
        comm_latency=comm_latency,
        max_polls=max_polls if max_polls is not None
        else _DEFAULT_MAX_POLLS,
        diagnostics=diagnostics,
        trace=tracer.enabled,
    )
    pex = executor if executor is not None else ProcessRankExecutor(
        workers=workers
    )
    driver = None
    try:
        slot_bytes, n_slots = _transport_sizing(
            CubedSpherePartitioner(config.npx, config.layout), config
        )
        cache0 = _compile_cache.stats()
        with tracer.span("ensemble.launch_workers") as sp:
            sp.set("workers", pex.launch(spec, n_ranks, slot_bytes, n_slots))
        # the parent driver builds engine + member states + conservation
        # baselines exactly like a sequential run — while the workers
        # build theirs — but is never stepped: it receives the stepped
        # states and runs the summaries/checks through the engine path
        driver = EnsembleDriver(
            scenario,
            config,
            members=members,
            seed=seed,
            executor="sequential",
            diagnostics=diagnostics,
        )
        _check_baselines(driver, pex.ready(), n_ranks)
        t0 = time.perf_counter()
        with tracer.span("ensemble.run"):
            pex.step(steps)
        seconds = time.perf_counter() - t0
        # the stepped blocks land in the parent's member records (the
        # resident one's are the engine's arrays)
        collected = pex.collect(
            {member: rec.states for member, rec in driver.members.items()}
        )
        reports = pex.collect_reports()
        executor_repr = repr(pex)
        pex.close()  # the workers are done: free them before the checks
        driver.steps_taken = steps
        for member, rec in driver.members.items():
            records = [header["members"][member] for header in collected]
            rec.time, rec.step_count = records[0]["time"], records[0]["step"]
            driver.history[member] = _merge_history(
                [record["history"] for record in records],
                n_ranks, rec.mass0, rec.tracer0,
            )
        # merge worker observability before the amortization deltas, so
        # the compile counters in the result cover the whole process tree
        _procs.fold_worker_reports(reports)
        amortization = driver._record_amortization(steps, seconds, cache0)
        return driver._result(seconds, amortization, check, executor_repr)
    finally:
        pex.close()
        if driver is not None:
            driver.close()
