"""Tests for survivable collectives: bounded receives, the abort
contract (a dead partner raises ``DeliveryError`` within an explicit
DES-time bound instead of parking forever), and the shrink-and-continue
protocol over live membership."""

import pytest

from repro.comm.membership import Membership
from repro.comm.mpi import DeliveryError, Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from repro.obs import ObsRecorder
from repro.resilience import FabricHealth, FaultInjector
from repro.sim import Simulator
from repro.units import US

LATENCY = 1 * US
TIMEOUT = 100 * US


def make_comm(n_ranks, health=None, obs=None):
    sim = Simulator()
    fabric = UniformFabric(Transport("test", latency=LATENCY, bandwidth=1e9))
    comm = SimMPI(
        sim, fabric, [Location(node=i) for i in range(n_ranks)], obs=obs,
    )
    if health is not None:
        comm.attach_health(health)
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


# -- shrink-and-continue ----------------------------------------------------

def test_shrink_needs_membership_and_timeout():
    sim, comm = make_comm(2)

    def no_timeout(rank):
        yield from rank.barrier(shrink=True)

    sim.process(no_timeout(comm.rank(0)))
    with pytest.raises(ValueError):
        sim.run()

    sim2, comm2 = make_comm(2)  # no attach_health

    def no_membership(rank):
        yield from rank.barrier(timeout=TIMEOUT, shrink=True)

    sim2.process(no_membership(comm2.rank(0)))
    with pytest.raises(ValueError):
        sim2.run()


def test_shrink_allreduce_over_survivors_only():
    """Rank 2's node is dead before the collective: the other three
    reduce each other's contributions and all agree."""
    health = FabricHealth()
    health.fail_node(2)
    sim, comm = make_comm(4, health=health)

    def body(rank):
        return (yield from rank.allreduce(
            rank.index + 1, op=lambda a, b: a + b,
            timeout=TIMEOUT, shrink=True,
        ))

    done, failed = collect(sim, comm, body, ranks=[0, 1, 3])
    assert not failed
    values = {v for v, _t in done.values()}
    assert values == {1 + 2 + 4}
    assert comm.membership.live_ranks() == (0, 1, 3)
    # termination bound: snapshot is already survivor-only, no retry
    assert all(t <= 2 * TIMEOUT for _v, t in done.values())


def test_shrink_commits_are_recorded_as_events():
    """Each survivor's commit is one ``mpi.shrink`` event on its rank,
    at the instant it returns: the collective's sequence number, the
    attempt that committed and the size of the group it reduced over."""
    health = FabricHealth()
    health.fail_node(2)
    rec = ObsRecorder()
    sim, comm = make_comm(4, health=health, obs=rec)

    def body(rank):
        return (yield from rank.allreduce(
            rank.index + 1, op=lambda a, b: a + b,
            timeout=TIMEOUT, shrink=True,
        ))

    done, failed = collect(sim, comm, body, ranks=[0, 1, 3])
    assert not failed
    events = sorted(rec.events, key=lambda e: e.track)
    assert [(e.category, e.track) for e in events] == [
        ("mpi.shrink", r) for r in (0, 1, 3)
    ]
    for event in events:
        assert event.t0 == event.t1 == done[event.track][1]
        assert dict(event.attrs) == {"seq": 0, "attempt": 0, "group": 3}
    assert all(span.category != "mpi.shrink" for span in rec.spans)


def test_shrink_excluded_rank_raises():
    health = FabricHealth()
    health.fail_node(1)
    sim, comm = make_comm(2, health=health)

    def body(rank):
        yield from rank.barrier(timeout=TIMEOUT, shrink=True)

    done, failed = collect(sim, comm, body, ranks=[1])
    assert not done and 1 in failed


def test_shrink_mid_collective_death_converges_and_is_deterministic():
    """Kill a rank *during* the collective: every survivor must return
    the same value within a bounded number of timeout periods, and the
    whole schedule must replay bit-identically."""

    def run_once():
        health = FabricHealth()
        sim, comm = make_comm(8, health=health)
        injector = FaultInjector(sim, health=health)

        def body(rank):
            return (yield from rank.allreduce(
                rank.index + 1, op=lambda a, b: a + b,
                timeout=TIMEOUT, shrink=True,
            ))

        done, failed = {}, {}

        def wrap(r):
            rank = comm.rank(r)
            try:
                value = yield from body(rank)
            except DeliveryError as err:
                failed[r] = (str(err), sim.now)
                return
            done[r] = (value, sim.now)

        for r in range(8):
            proc = sim.process(wrap(r), name=f"rank{r}")
            injector.watch(r, proc)
        injector.fail_node_at(1.5 * US, 1)
        sim.run()
        return done, failed, sim.now

    done, failed, end = run_once()
    assert 1 not in done and 1 not in failed  # the victim just dies
    assert set(done) == {0, 2, 3, 4, 5, 6, 7} and not failed
    values = {v for v, _t in done.values()}
    assert len(values) == 1  # single consistent commit
    total = sum(range(1, 9))
    assert values <= {total, total - 2}  # with or without the victim
    assert all(t <= 3 * TIMEOUT for _v, t in done.values())
    assert run_once() == (done, failed, end)  # exact replay


def test_shrink_bcast_delivers_or_fails_consistently():
    # live root, one dead middle rank: value reaches every survivor
    health = FabricHealth()
    health.fail_node(2)
    sim, comm = make_comm(4, health=health)

    def body(rank):
        return (yield from rank.bcast(
            "payload" if rank.index == 0 else None, root=0,
            timeout=TIMEOUT, shrink=True,
        ))

    done, failed = collect(sim, comm, body, ranks=[0, 1, 3])
    assert not failed
    assert {v for v, _t in done.values()} == {"payload"}

    # dead root: every survivor raises (consistently, not a hang)
    health2 = FabricHealth()
    health2.fail_node(0)
    sim2, comm2 = make_comm(4, health=health2)

    def body2(rank):
        return (yield from rank.bcast(
            "payload" if rank.index == 0 else None, root=0,
            timeout=TIMEOUT, shrink=True,
        ))

    done2, failed2 = collect(sim2, comm2, body2, ranks=[1, 2, 3])
    assert not done2 and set(failed2) == {1, 2, 3}


def test_shrink_reduce_lands_at_surviving_root():
    health = FabricHealth()
    health.fail_node(0)  # the requested root is dead
    sim, comm = make_comm(4, health=health)

    def body(rank):
        return (yield from rank.reduce(
            rank.index, op=lambda a, b: a + b, root=0,
            timeout=TIMEOUT, shrink=True,
        ))

    done, failed = collect(sim, comm, body, ranks=[1, 2, 3])
    assert not failed
    # result lands at the committing group's lowest rank (1)
    assert done[1][0] == 1 + 2 + 3
    assert done[2][0] is None and done[3][0] is None


def test_membership_view_tracks_ledger():
    health = FabricHealth()
    member = Membership([Location(node=i) for i in range(4)], health)
    assert member.live_ranks() == (0, 1, 2, 3)
    health.fail_node(2)
    assert member.live_ranks() == (0, 1, 3)
    assert not member.is_live(2) and member.is_live(0)
    health.repair_node(2)
    assert member.live_ranks() == (0, 1, 2, 3)
