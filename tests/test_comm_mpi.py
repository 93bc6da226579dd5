"""Tests for SimMPI: point-to-point semantics, matching, collectives."""

import pytest

from repro.comm.mpi import ANY_SOURCE, ANY_TAG, Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from repro.sim import Simulator
from repro.units import US


def make_comm(n_ranks, latency=1 * US, bandwidth=1e9):
    sim = Simulator()
    fabric = UniformFabric(Transport("test", latency=latency, bandwidth=bandwidth))
    comm = SimMPI(sim, fabric, [Location(node=i) for i in range(n_ranks)])
    return sim, comm


def run_ranks(sim, comm, rank_fn):
    """Start one process per rank running ``rank_fn(rank_api)``."""
    procs = []
    for r in range(comm.size):
        procs.append(sim.process(rank_fn(comm.rank(r)), name=f"rank{r}"))
    sim.run()
    return procs


def test_send_recv_delivers_payload_and_timing():
    sim, comm = make_comm(2)
    out = {}

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=1000, tag=7, payload="hello")
        else:
            msg = yield from rank.recv(source=0, tag=7)
            out["msg"] = msg
            out["time"] = rank.sim.now

    run_ranks(sim, comm, body)
    assert out["msg"].payload == "hello"
    assert out["msg"].size == 1000
    # Delivery = latency + serialization = 1us + 1000/1e9 s.
    assert out["time"] == pytest.approx(1e-6 + 1e-6)


def test_zero_byte_message_arrives_after_latency_only():
    sim, comm = make_comm(2, latency=5 * US)
    times = {}

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=0)
            times["sender_free"] = rank.sim.now
        else:
            yield from rank.recv()
            times["recv"] = rank.sim.now

    run_ranks(sim, comm, body)
    assert times["sender_free"] == pytest.approx(0.0)  # no serialization
    assert times["recv"] == pytest.approx(5e-6)


def test_self_message_is_free():
    sim, comm = make_comm(1)
    times = {}

    def body(rank):
        yield from rank.send(0, size=10_000, payload=123)
        msg = yield from rank.recv()
        times["t"] = rank.sim.now
        times["payload"] = msg.payload

    run_ranks(sim, comm, body)
    assert times["t"] == pytest.approx(0.0)
    assert times["payload"] == 123


def test_recv_matches_on_source_and_tag():
    sim, comm = make_comm(3)
    order = []

    def body(rank):
        if rank.index == 2:
            # Wait specifically for rank 1 first even though rank 0's
            # message arrives earlier.
            msg1 = yield from rank.recv(source=1, tag=5)
            order.append(msg1.source)
            msg0 = yield from rank.recv(source=0, tag=5)
            order.append(msg0.source)
        elif rank.index == 0:
            yield from rank.send(2, size=0, tag=5)
        else:
            yield rank.sim.timeout(1e-3)
            yield from rank.send(2, size=0, tag=5)

    run_ranks(sim, comm, body)
    assert order == [1, 0]


def test_any_source_any_tag_wildcards():
    sim, comm = make_comm(3)
    got = []

    def body(rank):
        if rank.index == 0:
            for _ in range(2):
                msg = yield from rank.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.append((msg.source, msg.tag))
        else:
            yield rank.sim.timeout(rank.index * 1e-6)
            yield from rank.send(0, size=0, tag=rank.index * 10)

    run_ranks(sim, comm, body)
    assert sorted(got) == [(1, 10), (2, 20)]


def test_messages_between_same_pair_arrive_in_order():
    sim, comm = make_comm(2)
    seen = []

    def body(rank):
        if rank.index == 0:
            for i in range(5):
                yield from rank.send(1, size=1000, tag=0, payload=i)
        else:
            for _ in range(5):
                msg = yield from rank.recv(source=0, tag=0)
                seen.append(msg.payload)

    run_ranks(sim, comm, body)
    assert seen == [0, 1, 2, 3, 4]


def test_send_validates_arguments():
    sim, comm = make_comm(2)

    def body(rank):
        if rank.index == 0:
            yield from rank.send(5, size=0)
        else:
            yield rank.sim.timeout(0.0)

    with pytest.raises(ValueError):
        run_ranks(sim, comm, body)


def test_send_rejects_negative_size():
    sim, comm = make_comm(2)

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=-1)
        else:
            yield rank.sim.timeout(0.0)

    with pytest.raises(ValueError):
        run_ranks(sim, comm, body)


def test_send_checks_arguments_after_the_key_is_priced():
    """A bad ``dest`` or ``size`` raises on every call, also once a
    valid key of the same rank is in the cost table."""
    sim, comm = make_comm(2)
    bad = [(2, 8), (-1, 8), (1, float("nan")), (1, -8), (1, float("inf"))]
    raised = []

    def body(rank):
        if rank.index == 0:
            for _ in range(2):
                yield from rank.send(1, size=8)
                for dest, size in bad:
                    with pytest.raises(ValueError):
                        yield from rank.send(dest, size=size)
                    raised.append(dest)
        else:
            for _ in range(2):
                yield from rank.recv(source=0)

    run_ranks(sim, comm, body)
    assert len(raised) == 2 * len(bad)
    assert comm.sent_counts == [2, 0]
    assert comm.sent_bytes == [16, 0]


def test_rank_handle_range_checked():
    _, comm = make_comm(2)
    with pytest.raises(ValueError):
        comm.rank(2)


def test_communicator_needs_ranks():
    sim = Simulator()
    fabric = UniformFabric(Transport("t", latency=0.0, bandwidth=1e9))
    with pytest.raises(ValueError):
        SimMPI(sim, fabric, [])


def test_sent_statistics():
    sim, comm = make_comm(2)

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=500)
            yield from rank.send(1, size=700)
        else:
            yield from rank.recv()
            yield from rank.recv()

    run_ranks(sim, comm, body)
    assert comm.sent_counts[0] == 2
    assert comm.sent_bytes[0] == 1200


# --- collectives ----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_barrier_synchronizes(n):
    sim, comm = make_comm(n)
    exit_times = {}

    def body(rank):
        # Stagger arrivals.
        yield rank.sim.timeout(rank.index * 1e-5)
        yield from rank.barrier()
        exit_times[rank.index] = rank.sim.now

    run_ranks(sim, comm, body)
    # Nobody leaves before the last arrival.
    last_arrival = (n - 1) * 1e-5
    assert all(t >= last_arrival for t in exit_times.values())


def test_two_consecutive_barriers_do_not_cross():
    sim, comm = make_comm(4)
    counters = {r: 0 for r in range(4)}

    def body(rank):
        yield rank.sim.timeout(rank.index * 3e-6)
        yield from rank.barrier()
        counters[rank.index] += 1
        yield from rank.barrier()
        counters[rank.index] += 1

    run_ranks(sim, comm, body)
    assert all(c == 2 for c in counters.values())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("root", [0, 1])
def test_bcast_delivers_root_value(n, root):
    if root >= n:
        pytest.skip("root outside communicator")
    sim, comm = make_comm(n)
    results = {}

    def body(rank):
        value = f"data-{rank.index}" if rank.index == root else None
        got = yield from rank.bcast(value, root=root)
        results[rank.index] = got

    run_ranks(sim, comm, body)
    assert all(v == f"data-{root}" for v in results.values())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_reduce_sums_at_root(n):
    sim, comm = make_comm(n)
    results = {}

    def body(rank):
        got = yield from rank.reduce(rank.index + 1, op=lambda a, b: a + b, root=0)
        results[rank.index] = got

    run_ranks(sim, comm, body)
    assert results[0] == n * (n + 1) // 2
    assert all(results[r] is None for r in range(1, n))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_allreduce_everyone_gets_result(n):
    sim, comm = make_comm(n)
    results = {}

    def body(rank):
        got = yield from rank.allreduce(2 ** rank.index, op=lambda a, b: a + b)
        results[rank.index] = got

    run_ranks(sim, comm, body)
    expected = 2**n - 1
    assert all(v == expected for v in results.values())


def test_bcast_takes_logarithmic_rounds():
    """Binomial broadcast over n ranks with latency L finishes in
    ceil(log2 n) * L (zero-size serialization)."""
    latency = 1 * US
    sim, comm = make_comm(8, latency=latency)
    finish = {}

    def body(rank):
        yield from rank.bcast("x", root=0, size=0)
        finish[rank.index] = rank.sim.now

    run_ranks(sim, comm, body)
    assert max(finish.values()) == pytest.approx(3 * latency)


def test_location_aware_fabric_charges_by_distance():
    from repro.comm.cml import CellMessagePath
    from repro.comm.mpi import TransportMapFabric

    path = CellMessagePath()

    def classify(src, dst):
        if src == dst:
            return None
        return path.classify((src.node, src.cell, src.spe), (dst.node, dst.cell, dst.spe))

    fabric = TransportMapFabric(
        {
            "intra-socket": path.intra_socket,
            "intranode": path.intranode,
            "internode": path.internode,
        },
        classify,
    )
    sim = Simulator()
    locations = [
        Location(node=0, cell=0, spe=0),
        Location(node=0, cell=0, spe=1),
        Location(node=1, cell=0, spe=0),
    ]
    comm = SimMPI(sim, fabric, locations)
    times = {}

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=0)
            yield from rank.send(2, size=0)
        else:
            yield from rank.recv(source=0)
            times[rank.index] = rank.sim.now

    run_ranks(sim, comm, body)
    assert times[1] == pytest.approx(0.272e-6)
    assert times[2] == pytest.approx(8.78e-6, rel=0.01)


# -- interrupts delivered inside collectives --------------------------------

def test_interrupt_while_parked_in_barrier():
    """A process interrupted mid-barrier (parked in the dissemination
    exchange's recv) sees the Interrupt inside the collective and can
    clean up; the other ranks' barrier never completes."""
    from repro.sim.engine import Interrupt

    sim, comm = make_comm(4)
    seen = {}
    procs = {}

    def body(rank):
        if rank.index == 3:
            # Rank 3 never enters the barrier, so everyone else parks.
            yield rank.sim.timeout(1.0)
            return
        try:
            yield from rank.barrier()
            seen[rank.index] = "completed"
        except Interrupt as stop:
            seen[rank.index] = ("interrupted", stop.cause, rank.sim.now)

    for r in range(comm.size):
        procs[r] = sim.process(body(comm.rank(r)), name=f"rank{r}")

    def controller(sim):
        yield sim.timeout(0.5)
        procs[1].interrupt("node-down")

    sim.process(controller(sim), name="controller")
    for r in (0, 2):
        procs[r].defused = True  # parked forever once rank 1 dies
    sim.run(until=1.0)
    assert seen[1] == ("interrupted", "node-down", 0.5)
    assert 0 not in seen and 2 not in seen  # still parked, not completed


def test_interrupt_while_parked_in_allreduce():
    """Interrupt lands inside allreduce's internal recv; uninterrupted
    ranks that already got their contributions finish normally."""
    from repro.sim.engine import Interrupt

    sim, comm = make_comm(2)
    seen = {}

    def body(rank):
        try:
            total = yield from rank.allreduce(rank.index + 1, lambda a, b: a + b)
            seen[rank.index] = ("completed", total)
        except Interrupt as stop:
            seen[rank.index] = ("interrupted", stop.cause)

    procs = [sim.process(body(comm.rank(r)), name=f"rank{r}") for r in range(2)]

    def controller(sim):
        # Fire immediately: rank 0 is parked in reduce's recv at t=0.
        yield sim.timeout(0.0)
        procs[0].interrupt("fault")

    sim.process(controller(sim), name="controller")
    procs[1].defused = True  # its bcast recv will never be answered
    sim.run(until=1.0)
    assert seen[0] == ("interrupted", "fault")
    assert 1 not in seen  # parked in the broadcast that never comes


def test_interrupted_rank_can_reenter_collectives():
    """After catching an Interrupt inside a barrier, a process can keep
    using its Rank handle (fresh collective tags don't collide)."""
    from repro.sim.engine import Interrupt

    sim, comm = make_comm(2)
    log = []

    def survivor(rank):
        try:
            yield from rank.barrier()
        except Interrupt:
            log.append("interrupted")
        # Point-to-point still works after the aborted collective.
        yield from rank.send(1, size=64, tag=9, payload="post-fault")

    def peer(rank):
        # Never joins the barrier; receives the post-fault message.
        msg = yield from rank.recv(source=0, tag=9)
        log.append(msg.payload)

    p0 = sim.process(survivor(comm.rank(0)), name="rank0")
    sim.process(peer(comm.rank(1)), name="rank1")

    def controller(sim):
        yield sim.timeout(0.1)
        p0.interrupt("transient")

    sim.process(controller(sim), name="controller")
    sim.run()
    assert log == ["interrupted", "post-fault"]
