"""The rank executor schedules bodies, it never picks them: lockstep
(``workers == 1``) interleaves generator bodies at their ``yield``s on
the calling thread, rank threads run the same bodies to their end."""

import time

import numpy as np
import pytest

from repro.fv3.communicator import LocalComm
from repro.resilience.errors import HaloTimeoutError
from repro.runtime import pool, ranks
from repro.runtime.ranks import RankExecutor


@pytest.fixture(params=[1, 3], ids=["lockstep", "threads"])
def executor(request):
    ex = RankExecutor(request.param)
    try:
        yield ex
    finally:
        ex.shutdown()


def test_lockstep_advances_every_body_to_its_yield_before_any_passes_it():
    events = []

    def body(rank):
        events.append(("start", rank))
        yield
        events.append(("advance", rank))
        yield
        events.append(("finish", rank))

    RankExecutor(1).run(body, 3)
    assert events == [
        (stage, rank)
        for stage in ("start", "advance", "finish")
        for rank in range(3)
    ]


def test_lockstep_bodies_may_yield_different_numbers_of_times():
    events = []

    def body(rank):
        for stage in range(rank + 1):
            events.append((stage, rank))
            yield
        return rank

    assert RankExecutor(1).run(body, 3) == [0, 1, 2]
    assert events == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def test_generator_and_plain_bodies_both_land_in_results(executor):
    def generator_body(rank):
        yield
        return 10 * rank

    assert executor.run(generator_body, 3) == [0, 10, 20]
    assert executor.run(lambda rank: rank + 1, 3) == [1, 2, 3]

    def mixed(rank):
        return generator_body(rank) if rank % 2 else -rank

    assert executor.run(mixed, 3) == [0, 10, -2]


def test_a_block_of_ranks_runs_like_the_whole(executor):
    """What the core of a rank worker process passes: the ranks of its
    block. Results come back in the block's order."""
    events = []

    def body(rank):
        events.append(rank)
        yield
        events.append(-rank)
        return 10 * rank

    assert executor.run(body, (3, 4, 5)) == [30, 40, 50]
    assert sorted(events) == [-5, -4, -3, 3, 4, 5]
    if not executor.parallel:
        assert events == [3, 4, 5, -3, -4, -5]
    assert executor.run(lambda rank: -rank, (4,)) == [-4]


def test_lockstep_error_closes_the_other_bodies_and_reraises():
    cleaned, reached = [], []

    def body(rank):
        try:
            yield
            if rank == 1:
                raise KeyError("rank 1 failed")
            yield
            reached.append(rank)
        finally:
            cleaned.append(rank)

    with pytest.raises(KeyError, match="rank 1 failed"):
        RankExecutor(1).run(body, 3)
    # rank 1 unwound by its own exception, ranks 0 and 2 were closed at
    # the yield they were parked on; nobody ran past the failure
    assert sorted(cleaned) == [0, 1, 2]
    assert reached == []


def test_rank_threads_reraise_the_lowest_rank_failure():
    def body(rank):
        yield
        if rank:
            raise ValueError(f"rank {rank}")
        return "ok"

    ex = RankExecutor(3)
    try:
        with pytest.raises(ValueError, match="rank 1"):
            ex.run(body, 3)
    finally:
        ex.shutdown()


def test_a_wait_holding_a_take_raises_and_keeps_the_slot():
    """A compute slot's scratch travels with the slot, so a rank thread
    that would wait holding a take (inside a program call) raises before
    anything is handed over: it keeps its slot and its worker, the
    take's ``finally`` brings the depth back, a wait at depth 0 hands
    the slot on, and every slot is idle again when the section ends."""
    ex = RankExecutor(2)
    seen = []

    def body(rank):
        worker = pool.current()
        worker.take(256)
        try:
            with pytest.raises(RuntimeError, match="holding scratch"):
                with ranks.io_wait():
                    pass  # pragma: no cover — never entered
            seen.append((rank, pool.current() is worker, worker.depth))
        finally:
            worker.depth -= 1
        with ranks.io_wait():
            pass

    try:
        ex.run(body, 2)
        assert sorted(seen) == [(0, True, 1), (1, True, 1)]
        assert [w.depth for w in ex.scratch] == [0, 0]
        with ex.idle_scratch() as idle:
            assert {id(w) for w in idle} == {id(w) for w in ex.scratch}
        assert ex.run(lambda rank: rank, 2) == [0, 1]
    finally:
        ex.shutdown()


def test_waiting_without_a_yield_times_out_typed_instead_of_hanging():
    """A lockstep body that waits on a message its peer posts only later
    — no ``yield`` in between — cannot be served: the wait must give up
    with the communicator's typed timeout inside its absence budget."""
    _wait_without_a_yield((0, 1))


def test_waiting_without_a_yield_inside_a_block_times_out_typed():
    """The same inside the block a rank worker process runs (one
    endpoint of a larger communicator): no hang there either."""
    _wait_without_a_yield((2, 3))


def _wait_without_a_yield(block):
    first, second = block
    comm = LocalComm(second + 1, owned_ranks=block)
    comm.max_polls, comm.poll_interval = 2, 0.02
    got = np.zeros(1)

    def body(rank):
        if rank == first:
            # the peer has not started
            comm.Irecv(got, source=second, dest=first).wait()
        else:
            comm.Ipack((1,), np.float64, lambda out: out.fill(1.0),
                       source=second, dest=first)
        yield

    t0 = time.perf_counter()
    with pytest.raises(HaloTimeoutError) as excinfo:
        RankExecutor(1).run(body, block)
    assert time.perf_counter() - t0 < 10 * comm.timeout
    assert (excinfo.value.source, excinfo.value.dest) == (second, first)

    def fixed(rank):
        if rank == second:
            comm.Ipack((1,), np.float64, lambda out: out.fill(1.0),
                       source=second, dest=first)
        yield  # every peer has posted
        if rank == first:
            comm.Irecv(got, source=second, dest=first).wait()

    RankExecutor(1).run(fixed, block)
    assert got[0] == 1.0 and comm.mailbox.pending_keys() == []
