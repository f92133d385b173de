"""repro.run — the unified experiment facade.

One public way to launch the model, single runs and ensembles alike::

    from repro.run import run

    result = run("baroclinic_wave", steps=4)             # single run
    result = run("baroclinic_wave", steps=4, members=8,  # ensemble
                 seed=42, executor="threads")
    print(result.describe())

``run`` resolves the scenario through :mod:`repro.scenarios`, builds
**one** engine :class:`~repro.fv3.dyncore.DynamicalCore`, and steps
every member's state through it step-major — the geometry build, the
orchestrated stencil suite and its compiled programs, and the pooled
scratch buffers are all paid once for the whole ensemble (see
``docs/ensembles.md``). It then runs the scenario's reference checks
and returns a structured :class:`RunResult`.

The rank executor is one argument: ``executor="sequential"``,
``"threads"`` (with ``workers=N``), ``"processes"`` (worker
*processes* over a shared-memory mailbox — see ``docs/scaling.md``
and :mod:`repro.runtime.procs`), or a
:class:`~repro.runtime.RankExecutor` instance. Per-member
checkpoint/restart and chaos/guard policies ride through
``resilience=`` (:class:`~repro.resilience.ResilienceConfig`), with
periodic checkpoints landing in per-member subdirectories.

Lower-level entry points for benchmarks and tests:
:func:`build_core` (one member's fully wired core — the single source
of truth for rank wiring) and :class:`EnsembleDriver` (stepwise
control, per-member checkpointing, reference checks).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.run import metrics
from repro.run.driver import (
    EnsembleDriver,
    build_core,
    build_grids,
    member_rng,
    resolve_executor,
)
from repro.run.results import MemberResult, RunResult

__all__ = [
    "EnsembleDriver",
    "MemberResult",
    "RunResult",
    "build_core",
    "build_grids",
    "member_rng",
    "metrics",
    "resolve_executor",
    "run",
]


def run(
    scenario,
    config=None,
    steps: int = 1,
    *,
    members: Union[int, Sequence[int]] = 1,
    seed: int = 0,
    executor=None,
    workers: Optional[int] = None,
    resilience=None,
    comm_latency: Optional[float] = None,
) -> RunResult:
    """Run a scenario for ``steps`` physics steps with ``members``
    ensemble members; returns a structured :class:`RunResult`.

    Args:
        scenario: registered scenario name or a
            :class:`~repro.scenarios.Scenario`.
        config: :class:`~repro.fv3.config.DynamicalCoreConfig`
            (default: the scenario's suggested configuration).
        steps: physics steps to advance every member.
        members: member count (ids ``0..N-1``; 0 is the unperturbed
            control) or an explicit id sequence — ``members=(k,)``
            reproduces batch member k standalone, bit-identically.
        seed: root seed of the per-member ``SeedSequence`` streams.
        executor: ``None`` (process default), ``"sequential"``,
            ``"threads"``, ``"processes"`` (worker processes speaking
            the halo protocol over shared memory; bit-identical to the
            other executors, but ``resilience=`` is rejected — see
            ``docs/scaling.md``), a
            :class:`~repro.runtime.RankExecutor`, or a
            :class:`~repro.runtime.procs.ProcessRankExecutor`.
        workers: thread cap for ``executor="threads"``; worker-process
            count for ``executor="processes"`` (default: one per
            rank).
        resilience: optional
            :class:`~repro.resilience.ResilienceConfig` applied to
            every member (periodic checkpoints go to per-member
            subdirectories).
        comm_latency: simulated per-message network latency [s].

    Every member records its per-step summaries on its ``history``, and
    the scenario's reference checks run after stepping
    (:attr:`RunResult.ok`).
    """
    # lazy check: a ProcessRankExecutor instance implies repro.runtime
    # .procs is already imported, so the module never loads otherwise
    import sys as _sys

    _procs = _sys.modules.get("repro.runtime.procs")
    is_proc_executor = (
        _procs is not None
        and isinstance(executor, _procs.ProcessRankExecutor)
    )
    if is_proc_executor or (
        isinstance(executor, str)
        and executor.strip().lower() == "processes"
    ):
        from repro.run.procrun import run_processes

        return run_processes(
            scenario,
            config,
            steps,
            members=members,
            seed=seed,
            executor=executor if is_proc_executor else None,
            workers=workers,
            resilience=resilience,
            comm_latency=comm_latency,
        )
    driver = EnsembleDriver(
        scenario,
        config,
        members=members,
        seed=seed,
        executor=executor,
        workers=workers,
        resilience=resilience,
    )
    if comm_latency is not None:
        driver.engine.halo.comm.latency = comm_latency
    try:
        return driver.run(steps)
    finally:
        driver.close()
