"""The communicator: an mpi4py-style nonblocking protocol over a mailbox.

The paper runs MPI over Cray Aries; this reproduction runs its ranks on
one machine (the substitution documented in DESIGN.md). The communicator
preserves the *communication pattern*: data is exchanged through packed
contiguous buffers with explicit ``Ipack``/``Irecv``/``wait`` lifecycles
(the mpi4py buffer idiom), and every message's byte count is recorded so
the network model can replay the exchange at scale (Fig. 11).

The protocol is written once, against a small *mailbox store*: a
condition variable plus slot operations (see :class:`DictMailbox` for
the interface). Two stores exist — the in-process dict below (ranks as
objects or threads in one process) and the shared-memory slot table
:class:`~repro.runtime.procs.ShmTransport` (ranks in worker processes).
Everything here holds for both:

- A message is written once, by its sender, into storage the store
  owns: ``Ipack`` reserves a slot and hands the sender's ``pack`` the
  payload array to fill. A receive *takes* that payload: the receiver
  reads it where it lies and hands the storage back with
  ``Request.release`` (an ``Irecv`` with a buffer copies into it and
  releases at once).
- ``Request.wait`` on a receive *blocks* on the condition variable until
  the matching send lands (or a real-time budget of
  ``max_polls * poll_interval`` seconds runs out, raising
  :class:`~repro.resilience.errors.HaloTimeoutError` naming the ranks,
  tag, phase and the mailbox keys still pending).
- A send completes when ``Ipack`` returns: the payload has left the
  sender, and a second post on the same key blocks until the receiver
  took the first (the only flow control).
- Every message carries a *deliverable-at* instant (``monotonic_ns``,
  system-wide, so it means the same in every process): simulated network
  latency (``latency``, seconds per message) and
  chaos ``halo.delay`` are both delivery-time conditions on the message
  itself, so seeded chaos replays are independent of how often a waiter
  happens to wake.
- The message tally and the byte/size counters are guarded by a lock,
  so obs accounting stays exact under concurrent ranks.

Failure semantics (the resilience layer, PR 4): the chaos harness can
drop, delay or corrupt individual messages at the ``halo.drop`` /
``halo.delay`` / ``halo.corrupt`` sites (every ``Ipack`` consults the
active plan — one ``is None`` check when chaos is off); ``finalize()``
reports sent-but-never-received messages; ``drain()`` clears in-flight
state so an aborted exchange can be retried cleanly.
"""

from __future__ import annotations

import math
import threading
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience import chaos as _chaos
from repro.resilience import record as _record
from repro.resilience.chaos import DEFAULT_DELAY_POLLS
from repro.resilience.errors import HaloTimeoutError, OrphanedMessagesWarning

_Key = Tuple[int, int, int]  # (source, dest, tag)

# cached module reference for the compute-slot handoff around blocking
# waits; imported lazily so loading the communicator alone stays light
_ranks_mod = None


def _io_wait():
    global _ranks_mod
    if _ranks_mod is None:
        from repro.runtime import ranks
        _ranks_mod = ranks
    return _ranks_mod.io_wait()


class DictMailbox:
    """The in-process mailbox store, and the interface every store has.

    ``cond`` is the condition variable all slot transitions happen
    under; the communicator holds it around every call below. A *slot*
    is whatever handle ``reserve`` / ``find`` return. A message's life:
    ``reserve`` (the sender fills the payload it returns, outside the
    lock), ``post`` (it becomes findable), ``take`` (the receiver owns
    the payload; the key is free for the next message), ``release`` (the
    receiver is done with it). ``discard`` drops what an aborted
    exchange left behind.
    """

    def __init__(self):
        self.cond = threading.Condition(threading.Lock())
        # key -> (payload, deliverable-at in monotonic_ns, chaos-delayed),
        # or None while the key has no posted message: the table keeps
        # an entry per key it has seen (the plans fix them), so it stops
        # changing once the first exchanges have run
        self._slots: Dict[_Key, Optional[Tuple[np.ndarray, int, bool]]] = {}

    def find(self, key: _Key):
        """The slot holding the posted message on ``key``, or None."""
        return key if self._slots.get(key) is not None else None

    def reserve(self, key: _Key, shape, dtype):
        """``(slot, payload)`` for a message on ``key``: the payload is
        the array the sender packs; None when the store is full (never,
        here: the payload is a new array)."""
        return key, np.empty(shape, dtype)

    def post(self, slot, payload: np.ndarray, at_ns: int,
             delayed: bool) -> None:
        """Publish a reserved slot. The store adopts ``payload`` as it
        is: the array the receiver takes is the one the sender packed."""
        self._slots[slot] = (payload, at_ns, delayed)

    def due(self, slot) -> Tuple[int, bool]:
        """(deliverable-at, chaos-delayed) of the message in ``slot``."""
        return self._slots[slot][1:]

    def take(self, slot) -> np.ndarray:
        """The payload as sent, now the receiver's until ``release``."""
        payload = self._slots[slot][0]
        self._slots[slot] = None
        return payload

    def release(self, slot) -> None:
        """A taken payload's storage is free again (here: the garbage
        collector's)."""

    def discard(self, owned: Sequence[int]) -> List[_Key]:
        """Drop every message destined to ``owned`` (taken or not);
        returns the keys of those never taken, sorted."""
        orphans = [key for key in self.pending_keys() if key[1] in owned]
        for key in orphans:
            self._slots[key] = None
        return orphans

    def pending_keys(self) -> List[_Key]:
        return sorted(
            key for key, entry in self._slots.items() if entry is not None
        )


class Request:
    """Completion handle for a nonblocking receive.

    ``wait()`` blocks until the matching send is deliverable (bounded by
    ``comm.timeout`` seconds of *absence*; modeled latency and chaos
    delays on a present message never count against the budget) and
    takes the payload: it is ``payload`` until ``release()``. With a
    posted buffer, ``wait()`` copies the payload into it and releases at
    once; a payload whose size differs from the buffer's is consumed and
    reported as a ``ValueError``.
    """

    def __init__(self, comm: "LocalComm", key: _Key, buf=None):
        self._comm = comm
        self._key = key
        self._buf = buf
        self._done = False
        self._slot = None
        #: a waited receive's payload, until ``release``
        self.payload: Optional[np.ndarray] = None

    def wait(self, timeout: Optional[float] = None) -> None:
        if self._done:
            return
        self._wait_recv(timeout)
        self._done = True

    def release(self) -> None:
        """Hand a taken payload's storage back to the store (a no-op for
        anything else); the payload must not be read afterwards."""
        slot, self._slot, self.payload = self._slot, None, None
        if slot is None:
            return
        box = self._comm.mailbox
        with box.cond:
            box.release(slot)
            box.cond.notify_all()

    def _timed_out(self) -> HaloTimeoutError:
        source, dest, tag = self._key
        return HaloTimeoutError(
            source=source,
            dest=dest,
            tag=tag,
            polls=self._comm.max_polls,
            pending=self._comm.mailbox.pending_keys(),
        )

    def _wait_recv(self, timeout: Optional[float]) -> None:
        comm, key = self._comm, self._key
        box = comm.mailbox
        budget = comm.timeout if timeout is None else timeout
        deadline: Optional[float] = None
        with _io_wait():
            with box.cond:
                while True:
                    slot = box.find(key)
                    if slot is not None:
                        at_ns, delayed = box.due(slot)
                        now_ns = time.monotonic_ns()
                        if at_ns <= now_ns:
                            self.payload = box.take(slot)
                            self._slot = slot
                            box.cond.notify_all()
                            break
                        # present but in flight (modeled latency / chaos
                        # delay): wake at the delivery instant — this
                        # wait is not charged to the timeout budget
                        box.cond.wait((at_ns - now_ns) / 1e9)
                        continue
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + budget
                    elif now >= deadline:
                        raise self._timed_out()
                    box.cond.wait(min(comm.poll_interval, deadline - now))
        if delayed:
            _record("halo_redeliveries")
        buf = self._buf
        if buf is None:
            return
        sent_shape = self.payload.shape
        fits = self.payload.size == buf.size
        if fits:
            np.copyto(buf, self.payload.reshape(buf.shape))
        self.release()
        if not fits:
            raise ValueError(
                f"message {key} of shape {sent_shape} does not fit the "
                f"posted receive buffer of shape {buf.shape}"
            )


class LocalComm:
    """A communicator routing buffers between the ranks of one machine.

    Matching follows MPI semantics on (source, dest, tag). Sends deliver
    eagerly (buffered), so a driver may still run ranks sequentially —
    post all sends, then complete all receives — while concurrent ranks
    block productively on the condition variable. A send to an occupied
    key blocks until the receiver takes the message there: that is the only flow
    control, and it is what keeps cross-member pipelining between rank
    worker processes correct without a global barrier.

    ``mailbox`` is the store the messages live in: by default a fresh
    in-process :class:`DictMailbox`; a rank worker process passes the
    shared-memory table it attached to. ``owned_ranks`` (ascending; all
    ranks by default) are the ranks this endpoint runs: a dynamical core
    builds and steps exactly these, and ``drain`` (and so ``finalize``)
    is scoped to messages destined to them, so one endpoint of a shared
    table never discards a sibling's in-flight messages; the message
    tally is per endpoint.

    ``latency`` (seconds, default 0) delays
    every message's deliverable-at instant, modeling the network the
    paper's Cray Aries interconnect provides: with it set, comm/compute
    overlap becomes measurable in one process.
    """

    #: receive budget, expressed as polls of ``poll_interval`` seconds so
    #: the recorded ``HaloTimeoutError.polls`` stays meaningful
    max_polls: int = 8
    #: condition-variable wake interval while a wanted key is absent
    poll_interval: float = 0.05

    def __init__(self, size: int, latency: Optional[float] = None,
                 mailbox=None,
                 owned_ranks: Optional[Sequence[int]] = None):
        self.size = size
        self.latency = latency or 0.0
        self.mailbox = mailbox if mailbox is not None else DictMailbox()
        self.owned_ranks = tuple(
            sorted(owned_ranks) if owned_ranks is not None else range(size)
        )
        self._lock = threading.Lock()  # guards the tally
        #: (source, bytes) -> messages sent
        self._sent: Dict[Tuple[int, int], int] = {}

    def per_rank(self, build) -> list:
        """A rank-indexed list holding ``build(rank)`` for the ranks this
        endpoint owns (built in rank order) and ``None`` for the rest."""
        out = [None] * self.size
        for rank in self.owned_ranks:
            out[rank] = build(rank)
        return out

    @property
    def timeout(self) -> float:
        """Seconds of absence a wait tolerates before raising."""
        return self.max_polls * self.poll_interval

    # ---- nonblocking operations -----------------------------------------

    def Ipack(self, shape, dtype, pack: Callable[[np.ndarray], None],
              source: int, dest: int, tag: int = 0) -> None:
        """Post a message of ``shape``/``dtype`` that ``pack(out)`` writes
        straight into the storage the store reserved for it. The send is
        complete when this returns; a dropped message never occupied a
        slot (the fault is invisible to the sender, as on a real
        network)."""
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        key = (source, dest, tag)
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        dropped = False
        delayed = False
        corrupt: Optional[int] = None
        if _chaos._PLAN is not None:
            if _chaos.consult(
                "halo.drop", source=source, dest=dest, tag=tag
            ):
                # the message vanishes in transit: bytes left the source
                # (counted below) but the mailbox never sees them
                dropped = True
            else:
                fault = _chaos.consult(
                    "halo.corrupt", source=source, dest=dest, tag=tag
                )
                if fault is not None:
                    corrupt = _chaos.get_plan().rng(
                        "halo.corrupt.index"
                    ).randrange(size)
                    fault.detail["index"] = corrupt
                if _chaos.consult(
                    "halo.delay", source=source, dest=dest, tag=tag
                ):
                    delayed = True
        sent = (source, size * dtype.itemsize)
        with self._lock:
            self._sent[sent] = self._sent.get(sent, 0) + 1
        if dropped:
            return
        box = self.mailbox
        with _io_wait():
            with box.cond:
                # an occupied key means the receiver has not taken the
                # previous message on it yet, a refused reservation that
                # the store is full: block until the receiver frees a
                # slot (concurrent ranks) or the budget expires (a
                # genuine duplicate post, an undersized store)
                deadline: Optional[float] = None
                while True:
                    occupied = box.find(key) is not None
                    reserved = None if occupied else box.reserve(
                        key, shape, dtype
                    )
                    if reserved is not None:
                        break
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + self.timeout
                    elif now >= deadline:
                        if occupied:
                            raise RuntimeError(
                                f"message {key} already in flight"
                            )
                        raise RuntimeError(
                            f"mailbox full: no free slot in {box!r} "
                            f"while posting {key}"
                        )
                    box.cond.wait(min(self.poll_interval, deadline - now))
        slot, payload = reserved
        try:
            pack(payload)
        except BaseException:
            with box.cond:
                box.release(slot)
            raise
        if corrupt is not None:
            payload.flat[corrupt] = np.nan
        delay = DEFAULT_DELAY_POLLS * self.poll_interval if delayed else 0.0
        hold_ns = int((self.latency + delay) * 1e9)
        with box.cond:
            box.post(slot, payload, time.monotonic_ns() + hold_ns, delayed)
            box.cond.notify_all()

    def Irecv(self, buf: Optional[np.ndarray], source: int, dest: int,
              tag: int = 0) -> Request:
        """A receive on (source, dest, tag): into ``buf``, or, with
        ``buf=None``, left on the request as its ``payload``."""
        return Request(self, (source, dest, tag), buf)

    # ---- lifecycle -------------------------------------------------------

    def drain(self) -> List[_Key]:
        """Drop the in-flight messages destined to this endpoint's ranks
        (delays included, a delay is a property of the message itself),
        returning the orphaned (source, dest, tag) triples, sorted.

        Called after an aborted exchange so the retry can repost every
        send without tripping the duplicate-key check; payloads its
        receives took and never released are handed back too.
        """
        box = self.mailbox
        with box.cond:
            orphans = box.discard(self.owned_ranks)
            box.cond.notify_all()
        return orphans

    def finalize(self, strict: bool = False) -> List[_Key]:
        """Drain check at teardown: report sent-but-never-received
        messages instead of leaking them silently.

        Returns the orphaned (source, dest, tag) triples; warns about
        them (:class:`OrphanedMessagesWarning`), or raises when
        ``strict`` is set.
        """
        orphans = self.drain()
        if orphans:
            _record("orphaned_messages", len(orphans))
            triples = ", ".join(
                f"(src={s}, dst={d}, tag={t})" for s, d, t in orphans
            )
            message = (
                f"{len(orphans)} message(s) sent but never received: "
                f"{triples}"
            )
            if strict:
                raise RuntimeError(message)
            warnings.warn(message, OrphanedMessagesWarning, stacklevel=2)
        return orphans

    # ---- statistics for the network model -------------------------------
    # a tally of (source, bytes) -> messages: it stays the same size
    # however many messages are sent

    def reset_log(self) -> None:
        with self._lock:
            self._sent.clear()

    def bytes_by_rank(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        with self._lock:
            tally = list(self._sent.items())
        for (source, nbytes), count in tally:
            out[source] = out.get(source, 0) + nbytes * count
        return out

    def message_sizes(self, rank: Optional[int] = None) -> List[int]:
        """Sizes of the messages sent (from ``rank``), in bytes."""
        with self._lock:
            tally = list(self._sent.items())
        return [
            nbytes
            for (source, nbytes), count in tally
            if rank is None or source == rank
            for _ in range(count)
        ]
