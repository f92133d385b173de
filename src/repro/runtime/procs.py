"""Process-based SPMD rank execution over a shared-memory mailbox.

PR 5 made ranks *concurrent* (one thread per rank); this module makes
them *parallel*: worker processes, each owning a contiguous block of
ranks, exchange halos through the one communicator
(:class:`~repro.fv3.communicator.LocalComm`) over a mailbox store that
lives in a POSIX shared-memory slot table guarded by one
``multiprocessing`` condition variable (:class:`ShmTransport`). The
split ``start_*/advance/finish_*`` halo API, whose messages are packed
into and unpacked from the store's own storage, was designed for
exactly this:
:class:`~repro.fv3.halo.HaloUpdater` never learns which store it is on.

Design:

- **Owned-rank cores.** A worker's communicator names its block
  (``LocalComm(owned_ranks=block)``) and the dynamical core it builds
  holds grids, states, workspaces and modules for that block only: the
  rest of the sphere is reached through the halo updater and nothing
  else. Member states come from the same builders and seeds as the
  parent's; a perturbed member draws from one stream across the ranks in
  rank order, so a worker builds the ranks below its block just long
  enough to advance the stream (``Scenario.initializer``). Members swap
  through the ensemble driver's helpers (:class:`_WorkerHarness`).
- **One thread per worker.** The worker runs its ranks' SPMD bodies in
  lockstep on its main thread, the schedule ``executor="sequential"``
  uses (:mod:`repro.runtime.ranks`): every body ``yield``s before its
  waits, so the messages between a worker's own ranks are posted before
  any of them waits, and a wait on another worker's rank blocks on the
  shared condition until that worker posts. Only one rank's transients
  are live in the arena at a time.
- **Launch, then build.** The parent starts the workers before it builds
  its own engine (:mod:`repro.run.procrun`), so both build at the same
  time and a forked worker never inherits the run's parent-side state.
- **Transport.** A fixed table of fixed-size slots in
  ``multiprocessing.shared_memory``; one slot holds one in-flight
  message (header: status/src/dst/tag/shape/dtype/deliverable-at),
  which its sender packs in place and its receiver unpacks in place —
  the slot stays held from the take until the receiver releases it.
  Matching, blocking, budgets and chaos sites are the communicator's;
  the table only stores. Deliverable-at instants are
  ``time.monotonic_ns`` — ``CLOCK_MONOTONIC`` is system-wide on the
  platforms we run on, so simulated latency works across processes.
  The alternative transports considered (one OS pipe per directed rank
  pair; a parent-brokered socket) were rejected for deadlock risk at
  full eager-send fan-in and for serializing every message through one
  broker, respectively.
- **Collection.** A worker answers ``collect`` with a small pickled
  header and then one raw frame per (member, rank, field), which the
  parent receives straight into its member records: no array is pickled
  and no worker's block is held twice.
- **Observability.** A worker zeroes every registered counter set when
  it starts (:func:`repro.obs.counters.reset_all`) and ships its tracer
  span tree, ``snapshot_all()`` — whatever is registered, its own
  message count included — its peak RSS and its thread count back over
  the result pipe at teardown; :func:`fold_worker_reports` merges them
  into the parent (``merge_all``) so the obs report footer covers the
  whole process tree.

``repro.run.run(..., executor="processes", workers=W)`` is the public
entry point (see :mod:`repro.run.procrun`); 1/2/6-process runs over the
6-tile cubed sphere are bit-identical to the sequential and threaded
executors, and ``benchmarks/bench_fig11_weak_scaling.py --measured``
turns the same machinery into the measured Fig. 11 curve.

Limitations (documented in ``docs/scaling.md``): ``resilience=`` is
rejected — chaos occurrence counters and rollback snapshots are
per-process and would diverge from the single-process schedule — and
custom scenarios must be resolvable by name in the worker (always true
under the default ``fork`` start method, which inherits the registry).
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import threading
import time
import traceback
import warnings
from multiprocessing import BufferTooShort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import tracer as _obs
from repro.obs.counters import (
    Counters, merge_all, register, reset_all, snapshot_all,
)
from repro.resilience.errors import OrphanedMessagesWarning
from repro.runtime import jit
from repro.runtime import ranks as _ranks

__all__ = [
    "ProcessRankExecutor",
    "ShmTransport",
    "WorkerSpec",
    "fold_worker_reports",
    "summary",
]

_Key = Tuple[int, int, int]  # (source, dest, tag)

# ---------------------------------------------------------------------------
# shared-memory slot table
# ---------------------------------------------------------------------------

#: header field indices (int64 each)
_H_STATUS = 0
_H_SRC = 1
_H_DST = 2
_H_TAG = 3
_H_NBYTES = 4
_H_NDIM = 5
_H_SHAPE = 6  # .. 6+_MAX_DIMS
_MAX_DIMS = 4
_H_AT_NS = 10
_H_DELAYED = 11
_H_DTYPE = 12
_HDR_INTS = 16
_HDR_BYTES = _HDR_INTS * 8

#: slot states: free; being packed by its sender; posted (findable);
#: taken by its receiver, which still reads the payload in place
_EMPTY, _FULL, _RESERVED, _TAKEN = 0, 1, 2, 3


def _pack_dtype(dtype: np.dtype) -> int:
    code = np.dtype(dtype).str.encode("ascii")
    if len(code) > 8:
        raise ValueError(f"dtype {dtype} not transportable")
    return int.from_bytes(code.ljust(8, b"\0"), "little")


def _unpack_dtype(packed: int) -> np.dtype:
    return np.dtype(int(packed).to_bytes(8, "little").rstrip(b"\0").decode())


class ShmTransport:
    """A fixed slot table in shared memory plus one condition variable.

    The parent creates the segment (``create``); workers attach by name
    (``attach``). All slot transitions happen under ``cond``, a
    ``multiprocessing.Condition``: the one wait/notify domain of all
    worker processes. Headers live in one contiguous int64 block at the
    front, payloads in fixed-capacity slots behind it.
    """

    def __init__(self, shm, cond, n_slots: int, slot_bytes: int,
                 owner: bool):
        self._shm = shm
        self.cond = cond
        self.n_slots = int(n_slots)
        self.slot_bytes = int(slot_bytes)
        self._owner = owner
        self._closed = False
        self.hdr = np.ndarray(
            (self.n_slots, _HDR_INTS), dtype=np.int64, buffer=shm.buf
        )
        self._payload_base = self.n_slots * _HDR_BYTES

    # -- lifecycle ------------------------------------------------------
    @classmethod
    def create(cls, n_slots: int, slot_bytes: int, ctx) -> "ShmTransport":
        from multiprocessing import shared_memory

        size = n_slots * (_HDR_BYTES + slot_bytes)
        shm = shared_memory.SharedMemory(create=True, size=size)
        transport = cls(shm, ctx.Condition(), n_slots, slot_bytes,
                        owner=True)
        transport.hdr[:] = 0
        return transport

    @classmethod
    def attach(cls, name: str, n_slots: int, slot_bytes: int,
               cond) -> "ShmTransport":
        from multiprocessing import resource_tracker, shared_memory

        # CPython registers attaches with the resource tracker exactly
        # like creates (gh-82300), so an attach-only process would
        # unlink the parent's live segment at exit. Under ``spawn`` the
        # attach starts a fresh child-local tracker — unregister there.
        # Under ``fork`` the tracker is *shared* with the parent and the
        # register is an idempotent re-add: unregistering would delete
        # the parent's entry, so leave it alone.
        inherited_tracker = (
            getattr(resource_tracker._resource_tracker, "_fd", None)
            is not None
        )
        shm = shared_memory.SharedMemory(name=name)
        if not inherited_tracker:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return cls(shm, cond, n_slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.hdr = None  # release the exported buffer before closing
        try:
            self._shm.close()
        except BufferError:
            # a payload an aborted exchange took is still referenced:
            # the mapping goes with this process
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    # -- the mailbox-store interface (caller holds ``cond``; see
    # -- ``repro.fv3.communicator.DictMailbox``) -------------------------
    def find(self, key: _Key) -> Optional[int]:
        h = self.hdr
        mask = (
            (h[:, _H_STATUS] == _FULL)
            & (h[:, _H_SRC] == key[0])
            & (h[:, _H_DST] == key[1])
            & (h[:, _H_TAG] == key[2])
        )
        hits = np.nonzero(mask)[0]
        return int(hits[0]) if hits.size else None

    def _payload(self, slot: int, shape, dtype: np.dtype) -> np.ndarray:
        offset = self._payload_base + slot * self.slot_bytes
        return np.frombuffer(
            self._shm.buf, dtype=dtype, count=math.prod(shape),
            offset=offset,
        ).reshape(shape)

    def reserve(self, key: _Key, shape, dtype) -> Optional[tuple]:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > self.slot_bytes:
            raise ValueError(
                f"message of {nbytes} bytes exceeds the transport's "
                f"{self.slot_bytes}-byte slot capacity (slots are sized "
                f"from the halo plans at launch: "
                f"repro.run.procrun._transport_sizing)"
            )
        if len(shape) > _MAX_DIMS:
            raise ValueError(
                f"{len(shape)}-d payloads unsupported (max {_MAX_DIMS})"
            )
        empty = np.nonzero(self.hdr[:, _H_STATUS] == _EMPTY)[0]
        if not empty.size:
            return None
        slot = int(empty[0])
        row = self.hdr[slot]
        row[_H_SRC], row[_H_DST], row[_H_TAG] = key
        row[_H_NBYTES] = nbytes
        row[_H_NDIM] = len(shape)
        row[_H_SHAPE:_H_SHAPE + _MAX_DIMS] = 0
        for axis, extent in enumerate(shape):
            row[_H_SHAPE + axis] = extent
        row[_H_DTYPE] = _pack_dtype(dtype)
        row[_H_STATUS] = _RESERVED
        # the sender packs straight into the slot
        return slot, self._payload(slot, shape, dtype)

    def post(self, slot: int, payload: np.ndarray, at_ns: int,
             delayed: bool) -> None:
        row = self.hdr[slot]
        row[_H_AT_NS] = at_ns
        row[_H_DELAYED] = int(delayed)
        row[_H_STATUS] = _FULL

    def due(self, slot: int) -> Tuple[int, bool]:
        row = self.hdr[slot]
        return int(row[_H_AT_NS]), bool(row[_H_DELAYED])

    def take(self, slot: int) -> np.ndarray:
        row = self.hdr[slot]
        row[_H_STATUS] = _TAKEN
        ndim = int(row[_H_NDIM])
        shape = tuple(int(row[_H_SHAPE + axis]) for axis in range(ndim))
        return self._payload(slot, shape, _unpack_dtype(row[_H_DTYPE]))

    def release(self, slot: int) -> None:
        self.hdr[slot, _H_STATUS] = _EMPTY

    def discard(self, owned: Sequence[int]) -> List[_Key]:
        h = self.hdr
        status = h[:, _H_STATUS]
        mine = np.isin(h[:, _H_DST], owned)
        orphans = self._keys(mine & (status == _FULL))
        h[mine & ((status == _FULL) | (status == _TAKEN)), _H_STATUS] = _EMPTY
        return orphans

    def _keys(self, mask) -> List[_Key]:
        h = self.hdr
        return sorted(
            (int(h[s, _H_SRC]), int(h[s, _H_DST]), int(h[s, _H_TAG]))
            for s in np.nonzero(mask)[0]
        )

    def pending_keys(self) -> List[_Key]:
        return self._keys(self.hdr[:, _H_STATUS] == _FULL)

    def __repr__(self) -> str:
        return (
            f"ShmTransport(n_slots={self.n_slots}, "
            f"slot_bytes={self.slot_bytes})"
        )


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its block deterministically
    (picklable: scenario travels by registry name)."""

    scenario: str
    config: object  # DynamicalCoreConfig (frozen dataclass)
    seed: int
    member_ids: Tuple[int, ...]
    comm_latency: Optional[float]
    max_polls: Optional[int]
    diagnostics: bool
    trace: bool


def _raw(array: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, for the raw collect frames."""
    return memoryview(array).cast("B")


def _frames(state, fields: Sequence[str]) -> List[np.ndarray]:
    """One rank's arrays in collect order: ``fields``, then its tracers
    (the worker sends them, the parent receives into them)."""
    return [getattr(state, name) for name in fields] + list(state.tracers)


class _WorkerHarness:
    """One worker's owned-rank engine plus its block of member states.

    Members are the :class:`~repro.run.driver.EnsembleDriver`'s records,
    swapped and stepped through the driver's own helpers
    (``_new_member``, ``_load``, ``_step``, ``_resident_first``): the
    engine is built from the first member's initial state, which that
    member keeps, so a one-member block copies nothing. Stepping is
    step-major over members, each sweep starting with the resident one;
    diagnostics are the engine's own per-rank summands. Member states
    come from the parent's builders and ``SeedSequence`` streams, the
    scenario's initializer replaying a perturbed member's stream past the
    ranks below the block (:meth:`repro.scenarios.Scenario.initializer`).
    """

    def __init__(self, spec: WorkerSpec, comm):
        from repro.run.driver import _new_member, build_core, member_rng
        from repro.scenarios import get_scenario

        self.spec = spec
        self.owned = comm.owned_ranks
        self.scenario = get_scenario(spec.scenario)
        self.config = spec.config
        self.core = core = build_core(
            self.scenario,
            self.config,
            member=spec.member_ids[0],
            seed=spec.seed,
            executor=_ranks.RankExecutor(1),
            comm=comm,
            comm_latency=spec.comm_latency,
            max_polls=spec.max_polls,
        )
        #: most threads seen alive right after a step (the report's
        #: ``threads``: the lockstep schedule needs exactly one)
        self.threads = 0
        self.members = {
            member: _new_member(core, self.scenario, member,
                                member_rng(spec.seed, member))
            for member in spec.member_ids
        }
        self.history: Dict[int, List[Dict[str, object]]] = {
            member: [] for member in spec.member_ids
        }

    # -- per-rank conservation partials: the engine's own summands, which
    # -- the parent folds in rank order (``procrun._fold_partials``) -----
    def _partials(self, summand) -> Dict[int, float]:
        return {rank: summand(rank) for rank in self.owned}

    def _tracer_partials(self) -> Dict[int, Optional[float]]:
        if not self.config.n_tracers:
            return dict.fromkeys(self.owned)
        return self._partials(self.core.rank_tracer_integral)

    def baselines(self) -> Dict[str, object]:
        from repro.run.driver import _load

        out: Dict[str, object] = {"mass0": {}, "tracer0": {}}
        for member, record in self.members.items():
            _load(self.core, record)
            out["mass0"][member] = self._partials(self.core.rank_integral)
            out["tracer0"][member] = self._tracer_partials()
        return out

    def step(self, n: int) -> None:
        from repro.run.driver import _resident_first, _step

        core = self.core
        for _ in range(int(n)):
            for member in _resident_first(core, list(self.members)):
                _step(core, self.members[member])
                self.threads = max(self.threads, threading.active_count())
                if self.spec.diagnostics:
                    self.history[member].append({
                        "time": core.time,
                        "step": core.step_count,
                        "mass": self._partials(core.rank_integral),
                        "max_wind": self._partials(core.rank_max_wind),
                        "max_w": self._partials(core.rank_max_w),
                        "tracer": self._tracer_partials(),
                    })

    def collect(self, conn) -> None:
        """Answer ``collect``: a header (owned ranks, per-member
        time/step/history, field order), then one raw frame per
        (member, owned rank, field) in that order, each rank's tracers
        after its fields. No array is pickled."""
        from repro.run.driver import _STATE_FIELDS

        conn.send(("ok", {
            "owned": self.owned,
            "fields": _STATE_FIELDS,
            "members": {
                member: {"time": record.time, "step": record.step_count,
                         "history": self.history[member]}
                for member, record in self.members.items()
            },
        }))
        for record in self.members.values():
            for rank in self.owned:
                for array in _frames(record.states[rank], _STATE_FIELDS):
                    conn.send_bytes(_raw(array))

    def close(self) -> None:
        self.core.finalize(strict=False)


def _worker_main(spec: WorkerSpec, owned: Tuple[int, ...], n_ranks: int,
                 n_workers: int, shm_name: str, n_slots: int,
                 slot_bytes: int, cond, conn) -> None:
    """Entry point of one rank worker process (module-level so the spawn
    start method can pickle it). Protocol over ``conn``: parent sends
    ``(command, arg)``; worker replies ``("ok"|"ready", payload)`` or
    ``("error", (type, message, traceback))``, and to ``close`` by
    closing its end of the pipe once its mailbox is drained."""
    transport = None
    harness = None
    try:
        from repro.fv3.communicator import LocalComm

        if not os.environ.get("REPRO_THREADS"):
            # the workers share the cores: each starts its share of the
            # kernel threads one process would (more would have the
            # OpenMP teams of different workers spin against each other)
            os.environ["REPRO_THREADS"] = str(
                max(1, jit.default_threads() // n_workers)
            )
        # a worker reports its own activity only: every counter starts
        # at zero; inherited programs and templates stay cached
        tracer = _obs.get_tracer()
        tracer.enabled = bool(spec.trace)
        tracer.reset()
        reset_all()
        transport = ShmTransport.attach(shm_name, n_slots, slot_bytes, cond)
        comm = LocalComm(n_ranks, mailbox=transport, owned_ranks=owned)
        harness = _WorkerHarness(spec, comm)
        conn.send(("ready", harness.baselines()))
        while True:
            command, arg = conn.recv()
            if command == "step":
                harness.step(arg)
                conn.send(("ok", None))
            elif command == "collect":
                harness.collect(conn)
            elif command == "report":
                sent = comm.message_sizes()
                COUNTERS.add("messages", len(sent))
                COUNTERS.add("bytes", int(sum(sent)))
                conn.send(("ok", {
                    "owned": owned,
                    "threads": harness.threads,
                    # ru_maxrss is KiB on Linux; a forked worker starts
                    # from the parent's resident set at the fork
                    "rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF
                    ).ru_maxrss / 1024.0,
                    "spans": tracer.summary() if tracer.enabled else None,
                    "counters": snapshot_all(),
                }))
            elif command == "close":
                break  # the ``finally`` below drains and detaches
    except BaseException as exc:  # noqa: BLE001 — shipped to the parent
        try:
            conn.send(("error", (
                type(exc).__name__, str(exc), traceback.format_exc(),
            )))
        except Exception:
            pass
    finally:
        try:
            if harness is not None:
                harness.close()
        except Exception:
            pass
        if transport is not None:
            transport.close()
        # a forked worker leaves through ``os._exit``, which waits for no
        # thread: a build still running would leave its compiler behind
        jit.wait()
        conn.close()


# ---------------------------------------------------------------------------
# parent-side executor
# ---------------------------------------------------------------------------

#: process-executor counters for the obs report footer. A worker's own
#: set carries what its communicator sent (``messages``, ``bytes``); the
#: three ``worker_*`` peaks are maxima over every worker that reported
COUNTERS = register("procs", Counters(
    sums=("launches", "steps", "worker_reports_merged", "messages", "bytes"),
    peaks=(
        "workers", "ranks", "worker_peak_rss_mb",
        "worker_arena_high_water_mb", "worker_threads",
    ),
))
summary = COUNTERS.snapshot
reset_metrics = COUNTERS.reset


def fold_worker_reports(payloads: Sequence[Dict[str, object]]) -> None:
    """Merge worker report payloads into the parent's tracer and counter
    sets, so the report footer covers the whole process tree, not just
    the parent."""
    tracer = _obs.get_tracer()
    for payload in payloads:
        if not payload:
            continue
        spans = payload.get("spans")
        if spans:
            tracer.merge(spans)
        counters = payload["counters"]
        merge_all(counters)
        COUNTERS.add("worker_reports_merged")
        COUNTERS.peak("worker_peak_rss_mb", payload["rss_mb"])
        COUNTERS.peak(
            "worker_arena_high_water_mb",
            counters["pool"]["high_water_bytes"] / 2 ** 20,
        )
        COUNTERS.peak("worker_threads", payload["threads"])


def _default_start_method() -> str:
    import multiprocessing

    # fork is preferred: workers inherit the scenario registry, warm
    # in-memory caches and the import graph, so launch cost stays low
    return ("fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")


class ProcessRankExecutor:
    """Parent handle on a fleet of rank worker processes.

    ``workers=W`` distributes the ``n_ranks`` ranks over W processes in
    contiguous blocks (W=1 is one worker stepping every rank, W=n_ranks
    one process per rank; a worker always runs its block in lockstep on
    one thread). The lifecycle is ``launch → ready → step* →
    collect/collect_reports → close``; every command fans out to all
    workers and gathers their replies, raising the lowest-worker error
    deterministically.
    """

    def __init__(self, workers: Optional[int] = None,
                 start_method: Optional[str] = None,
                 command_timeout: float = 600.0):
        self.workers = workers
        self.start_method = start_method or _default_start_method()
        self.command_timeout = command_timeout
        self.transport: Optional[ShmTransport] = None
        self._procs: List[object] = []
        self._conns: List[object] = []
        self._blocks: List[Tuple[int, ...]] = []
        self.n_ranks = 0

    def launch(self, spec: WorkerSpec, n_ranks: int, slot_bytes: int,
               n_slots: int) -> int:
        """Create the transport and start the workers without waiting
        for them — the caller builds its own side meanwhile, then calls
        :meth:`ready`. Returns the number of workers. On any failure
        from here on the caller owes a :meth:`close`."""
        import multiprocessing

        if self._procs:
            raise RuntimeError("executor already launched")
        # a forked worker must not inherit flights that only a thread of
        # this process would resolve
        jit.wait()
        ctx = multiprocessing.get_context(self.start_method)
        width = min(self.workers or n_ranks, n_ranks)
        self.n_ranks = n_ranks
        self._blocks = [
            tuple(int(r) for r in block)
            for block in np.array_split(np.arange(n_ranks), width)
            if len(block)
        ]
        self.transport = ShmTransport.create(n_slots, slot_bytes, ctx)
        for index, block in enumerate(self._blocks):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(spec, block, n_ranks, len(self._blocks),
                      self.transport.name, n_slots, slot_bytes,
                      self.transport.cond, child_conn),
                name=f"repro-rank-worker-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        COUNTERS.add("launches")
        COUNTERS.peak("workers", len(self._procs))
        COUNTERS.peak("ranks", n_ranks)
        return len(self._procs)

    def ready(self) -> List[Dict[str, object]]:
        """Wait for every worker's ``ready`` handshake (its engine and
        member states are built); returns the per-worker baseline
        payloads."""
        return [self._recv(i) for i in range(len(self._procs))]

    def _failure(self, index: int, what: str) -> RuntimeError:
        return RuntimeError(
            f"rank worker {index} (ranks {self._blocks[index]}) {what}"
        )

    def _await(self, index: int) -> None:
        """Block until worker ``index`` has sent something."""
        conn, proc = self._conns[index], self._procs[index]
        deadline = time.monotonic() + self.command_timeout
        while not conn.poll(1.0):
            if not proc.is_alive() and not conn.poll(0):
                raise self._failure(
                    index, f"died with exit code {proc.exitcode}"
                )
            if time.monotonic() > deadline:
                raise self._failure(
                    index,
                    f"unresponsive after {self.command_timeout:.0f}s",
                )

    def _recv(self, index: int):
        self._await(index)
        try:
            status, payload = self._conns[index].recv()
        except EOFError:
            raise self._failure(
                index, "closed its pipe unexpectedly (exit code "
                f"{self._procs[index].exitcode})"
            ) from None
        if status == "error":
            kind, message, tb = payload
            raise self._failure(
                index, f"failed with {kind}: {message}\n{tb}"
            )
        return payload

    def _recv_into(self, index: int, array: np.ndarray) -> None:
        """Receive one raw frame straight into ``array``."""
        self._await(index)
        try:
            got = self._conns[index].recv_bytes_into(_raw(array))
        except BufferTooShort as exc:
            got = len(exc.args[0])
        except EOFError:
            raise self._failure(
                index, "closed its pipe in the middle of a collect "
                f"(exit code {self._procs[index].exitcode})"
            ) from None
        if got != array.nbytes:
            raise self._failure(
                index, f"sent a {got}-byte frame for a field of "
                f"{array.nbytes} bytes"
            )

    def _broadcast(self, command: str, arg=None) -> List[object]:
        for conn in self._conns:
            conn.send((command, arg))
        return [self._recv(i) for i in range(len(self._conns))]

    def step(self, n: int) -> None:
        self._broadcast("step", int(n))
        COUNTERS.add("steps", int(n))

    def collect(
        self, states: Dict[int, Sequence[object]]
    ) -> List[Dict[str, object]]:
        """Gather the stepped blocks into ``states[member][rank]`` (the
        ``RankFields`` of the parent's member records), worker by
        worker: each answers with a header, then one raw frame per
        (member, rank, field) in the header's order, received straight
        into the destination array. Returns the headers."""
        for conn in self._conns:
            conn.send(("collect", None))
        headers = []
        for index in range(len(self._conns)):
            header = self._recv(index)
            for member in header["members"]:
                for rank in header["owned"]:
                    for array in _frames(states[member][rank],
                                         header["fields"]):
                        self._recv_into(index, array)
            headers.append(header)
        return headers

    def collect_reports(self) -> List[Dict[str, object]]:
        return self._broadcast("report")

    def close(self) -> None:
        """Shut the fleet down (idempotent); leftover in-flight messages
        are reported like ``LocalComm.finalize`` reports orphans."""
        for conn in self._conns:
            try:
                conn.send(("close", None))
            except (OSError, ValueError):
                pass
        for index, proc in enumerate(self._procs):
            # a reply nobody read yet (a worker must not stay blocked in
            # its send), else the end of its pipe
            try:
                self._recv(index)
            except Exception:
                pass
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []
        if self.transport is not None:
            leftovers = self.transport.pending_keys()
            if leftovers:
                warnings.warn(
                    f"{len(leftovers)} message(s) left in the "
                    f"shared-memory mailbox at shutdown: {leftovers}",
                    OrphanedMessagesWarning,
                    stacklevel=2,
                )
            self.transport.close()
            self.transport = None

    def __repr__(self) -> str:
        width = len(self._blocks) or (self.workers or 0)
        return (
            f"ProcessRankExecutor(workers={width}, ranks={self.n_ranks}, "
            f"start={self.start_method}, transport=shm)"
        )
