"""Tests for bounded receives and the collectives' abort
contract (a dead partner raises ``DeliveryError`` within an explicit
DES-time bound instead of parking forever)."""

import pytest

from repro.comm.mpi import DeliveryError, Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from repro.sim import Simulator
from repro.units import US

LATENCY = 1 * US
TIMEOUT = 100 * US


def make_comm(n_ranks):
    sim = Simulator()
    fabric = UniformFabric(Transport("test", latency=LATENCY, bandwidth=1e9))
    comm = SimMPI(sim, fabric, [Location(node=i) for i in range(n_ranks)])
    return sim, comm


def collect(sim, comm, body, ranks):
    """Run ``body(rank)`` on each listed rank; returns ``{rank: (value,
    time)}`` for completions and ``{rank: (error, time)}`` for raises."""
    done, failed = {}, {}

    def wrap(r):
        rank = comm.rank(r)
        try:
            value = yield from body(rank)
        except DeliveryError as err:
            failed[r] = (err, sim.now)
            return
        done[r] = (value, sim.now)

    for r in ranks:
        sim.process(wrap(r), name=f"rank{r}")
    sim.run()
    return done, failed


# -- bounded receives --------------------------------------------------------

def test_recv_timeout_must_be_positive():
    sim, comm = make_comm(2)

    def body(rank):
        yield from rank.recv(source=1, timeout=0.0)

    proc = sim.process(body(comm.rank(0)))
    with pytest.raises(ValueError):
        sim.run()
    assert not proc.is_alive


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_recv_rejects_a_bad_timeout_before_posting(bad):
    """The bad bound raises ValueError and posts nothing: the next
    plain receive still gets the message, and the clock stays finite."""
    sim, comm = make_comm(2)
    errors, got = [], []

    def receiver(rank):
        try:
            yield from rank.recv(source=0, timeout=bad)
        except Exception as err:
            errors.append(type(err))
        msg = yield from rank.recv(source=0)
        got.append(msg.payload)

    def sender(rank):
        yield from rank.send(1, size=8, payload="x")

    sim.process(receiver(comm.rank(1)))
    sim.process(sender(comm.rank(0)))
    sim.run()
    assert errors == [ValueError]
    assert got == ["x"]
    assert sim.now == pytest.approx(LATENCY + 8 / 1e9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_allreduce_rejects_a_bad_timeout_on_every_rank(bad):
    """Every rank raises at entry, before the collective takes a tag
    or posts a receive, so the next allreduce still completes."""
    sim, comm = make_comm(4)
    errors = []

    def body(rank):
        try:
            yield from rank.allreduce(1, op=max, timeout=bad)
        except ValueError:
            errors.append(rank.index)
        return (yield from rank.allreduce(rank.index, op=max))

    done, failed = collect(sim, comm, body, ranks=range(4))
    assert not failed
    assert sorted(errors) == [0, 1, 2, 3]
    assert all(v == 3 for v, _t in done.values())


def test_reduce_leaf_checks_its_timeout():
    """A leaf of the reduction tree only sends, so only the entry
    check can see its bound."""
    sim, comm = make_comm(2)

    def body(rank):
        yield from rank.reduce(1, op=max, timeout=float("nan"))

    proc = sim.process(body(comm.rank(1)))
    with pytest.raises(ValueError):
        sim.run()
    assert not proc.is_alive
    assert comm.sent_counts == [0, 0]


def test_recv_timeout_unchanged_timeline_when_message_wins():
    """A timeout that never fires must not perturb delivery times."""
    times = {}
    for use_timeout in (False, True):
        sim, comm = make_comm(2)

        def sender(rank):
            yield from rank.send(1, size=256)

        def receiver(rank):
            kwargs = {"timeout": TIMEOUT} if use_timeout else {}
            yield from rank.recv(source=0, **kwargs)
            times[use_timeout] = sim.now

        sim.process(sender(comm.rank(0)))
        sim.process(receiver(comm.rank(1)))
        sim.run()
    assert times[False] == times[True]


def test_dead_partner_recv_raises_at_exact_deadline():
    sim, comm = make_comm(2)

    def body(rank):
        yield from rank.recv(source=1, timeout=TIMEOUT)

    done, failed = collect(sim, comm, body, ranks=[0])
    assert not done and 0 in failed
    _err, t = failed[0]
    assert t == pytest.approx(TIMEOUT)


# -- abort contract: collectives over a dead rank ---------------------------

def test_dead_rank_barrier_raises_within_two_timeouts():
    """Rank 3 never participates: every survivor must abort within an
    explicit DES-time bound (one armed timeout per parked receive, so
    at most two timeout periods end-to-end) instead of hanging."""
    sim, comm = make_comm(4)

    def body(rank):
        yield from rank.barrier(timeout=TIMEOUT)

    done, failed = collect(sim, comm, body, ranks=[0, 1, 2])
    assert not done
    assert set(failed) == {0, 1, 2}
    for _r, (_err, t) in failed.items():
        assert TIMEOUT <= t <= 2 * TIMEOUT


def test_dead_rank_allreduce_raises_within_two_timeouts():
    sim, comm = make_comm(8)

    def body(rank):
        return (yield from rank.allreduce(1, op=lambda a, b: a + b,
                                          timeout=TIMEOUT))

    done, failed = collect(sim, comm, body, ranks=range(7))
    assert not done
    assert set(failed) == set(range(7))
    for _r, (_err, t) in failed.items():
        assert TIMEOUT <= t <= 2 * TIMEOUT


def test_collectives_without_timeout_unchanged():
    """The historical no-timeout path still completes normally."""
    sim, comm = make_comm(4)

    def body(rank):
        yield from rank.barrier()
        return (yield from rank.allreduce(rank.index, op=max))

    done, failed = collect(sim, comm, body, ranks=range(4))
    assert not failed
    assert all(v == 3 for v, _t in done.values())
