"""Tests for the contention-aware DES fabric."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.comm.mpi import DeliveryError, Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from repro.network.latency import IBLatencyModel
from repro.network.simfabric import ContendedFabric
from repro.network.topology import RoadrunnerTopology
from repro.obs import (
    AggregatingSink,
    ObsRecorder,
    deterministic_summary,
    span_stream,
)
from repro.resilience import DeliveryPolicy, FabricHealth
from repro.sim import BandwidthLink, Simulator
from repro.units import MB, US


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture(scope="module")
def topo():
    return RoadrunnerTopology(cu_count=1)


def make_comm(sim, topo, n_nodes):
    fabric = ContendedFabric(sim, topology=topo)
    locations = [Location(node=i) for i in range(n_nodes)]
    return SimMPI(sim, fabric, locations), fabric


def run_ranks(sim, comm, body):
    for r in range(comm.size):
        sim.process(body(comm.rank(r)), name=f"rank{r}")
    sim.run()


def test_uncontended_message_matches_analytic_time(sim, topo):
    comm, fabric = make_comm(sim, topo, 2)
    size = int(1 * MB)
    times = {}

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=size)
        else:
            yield from rank.recv()
            times["recv"] = rank.sim.now

    run_ranks(sim, comm, body)
    expected = fabric.one_way_time(Location(0), Location(1), size)
    assert times["recv"] == pytest.approx(expected, rel=1e-9)


def test_two_senders_share_the_receivers_nic(sim, topo):
    """Two 1 MB messages into the same node take ~2x the ejection time
    of one: the rx port is the bottleneck."""
    comm, fabric = make_comm(sim, topo, 3)
    size = int(1 * MB)
    times = {}

    def body(rank):
        if rank.index in (0, 1):
            yield from rank.send(2, size=size)
        else:
            yield from rank.recv()
            yield from rank.recv()
            times["both"] = rank.sim.now

    run_ranks(sim, comm, body)
    solo = fabric.one_way_time(Location(0), Location(2), size)
    bw_phase = size / fabric.latency.bandwidth
    # Both payloads must cross the single rx link: ~ one extra
    # bandwidth phase beyond the solo time.
    assert times["both"] >= solo + 0.9 * bw_phase
    assert times["both"] <= solo + 1.3 * bw_phase


def test_distinct_destinations_do_not_contend(sim, topo):
    comm, fabric = make_comm(sim, topo, 4)
    size = int(1 * MB)
    times = {}

    def body(rank):
        if rank.index == 0:
            yield from rank.send(2, size=size)
        elif rank.index == 1:
            yield from rank.send(3, size=size)
        elif rank.index in (2, 3):
            yield from rank.recv()
            times[rank.index] = rank.sim.now

    run_ranks(sim, comm, body)
    solo = fabric.one_way_time(Location(0), Location(2), size)
    assert times[2] == pytest.approx(solo, rel=1e-9)
    assert times[3] == pytest.approx(solo, rel=1e-9)


def test_intranode_messages_are_free_of_the_nic(sim, topo):
    comm, fabric = make_comm(sim, topo, 2)
    done = fabric.transfer(Location(node=1), Location(node=1), int(1 * MB))
    sim.run(until=done)
    assert sim.now == 0.0
    assert fabric.nic_bytes(1) == (0.0, 0.0)


def test_zero_byte_transfer_immediate(sim, topo):
    fabric = ContendedFabric(sim, topology=topo)
    done = fabric.transfer(Location(node=0), Location(node=1), 0)
    sim.run(until=done)
    assert sim.now == 0.0


def test_nic_byte_accounting(sim, topo):
    comm, fabric = make_comm(sim, topo, 2)
    size = 100_000

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=size)
        else:
            yield from rank.recv()

    run_ranks(sim, comm, body)
    assert fabric.nic_bytes(0) == (size, 0.0)
    assert fabric.nic_bytes(1) == (0.0, size)


@pytest.mark.parametrize("size", [float("nan"), float("inf")])
def test_fabric_rejects_nan_and_infinite_sizes(sim, topo, size):
    """Regression: a NaN size reached the links unchecked, and a NaN
    send then never finished (zero-delay timers spinning at t=0)."""
    fabric = ContendedFabric(sim, topology=topo, model_uplinks=True)
    with pytest.raises(ValueError):
        fabric.transfer(Location(node=0), Location(node=1), size)
    with pytest.raises(ValueError):
        fabric.one_way_time(Location(node=0), Location(node=1), size)


@pytest.mark.parametrize("contended", [True, False])
def test_send_rejects_nan_size(sim, topo, contended):
    """A NaN send fails at its first step on either fabric; over the
    analytic one it used to arrive after the latency alone and leave
    ``sent_bytes`` reading NaN."""
    fabric = (ContendedFabric(sim, topology=topo) if contended
              else UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9)))
    comm = SimMPI(sim, fabric, [Location(node=0), Location(node=1)])
    send = comm.rank(0).send(1, float("nan"))
    with pytest.raises(ValueError):
        next(send)
    assert comm.sent_bytes == [0, 0]


# -- sends over a fabric with a health ledger ------------------------------

def _ledger_comm(sim, topo, n_nodes, health, delivery=None, obs=None):
    fabric = ContendedFabric(sim, topology=topo, health=health, obs=obs)
    locations = [Location(node=i) for i in range(n_nodes)]
    return SimMPI(sim, fabric, locations, delivery=delivery, obs=obs)


def _send_once(sim, comm, dest, size):
    """Rank 0 sends one message to ``dest``; returns the error the send
    raised (or None) and the time it ended."""
    outcome = {}

    def sender(rank):
        try:
            yield from rank.send(dest, size=size)
        except DeliveryError as err:
            outcome["error"] = err
        outcome["time"] = sim.now

    sim.process(sender(comm.rank(0)), name="sender")
    sim.run()
    return outcome.get("error"), outcome["time"]


def _count_transfers(monkeypatch) -> list:
    """Record the ``(src, dst)`` nodes of every fabric transfer."""
    attempts = []
    transfer = ContendedFabric.transfer

    def counted(self, src, dst, size):
        attempts.append((src.node, dst.node))
        return transfer(self, src, dst, size)

    monkeypatch.setattr(ContendedFabric, "transfer", counted)
    return attempts


def test_send_to_failed_node_without_policy_fails_first_attempt(
    sim, topo, monkeypatch
):
    """Without a delivery policy the fabric's refusal is the send's
    error: one transfer, no retry, raised at the instant of the send."""
    health = FabricHealth()
    health.fail_node(1)
    rec = ObsRecorder()
    comm = _ledger_comm(sim, topo, 2, health, obs=rec)
    attempts = _count_transfers(monkeypatch)
    error, when = _send_once(sim, comm, 1, 4096)
    assert isinstance(error, DeliveryError) and "node 1 is down" in str(error)
    assert when == 0.0
    assert attempts == [(0, 1)]
    assert comm.retry_counts == [0, 0]
    assert rec.events == [] and rec.spans == []


@pytest.mark.parametrize("max_retries", [0, 3])
def test_send_to_failed_node_under_policy_spends_its_retries(
    sim, topo, monkeypatch, max_retries
):
    """Under ``DeliveryPolicy(max_retries=k)`` each refusal is a lost
    attempt: k + 1 transfers, k retry events, backoff waits between
    them, then one undelivered send span and the error."""
    health = FabricHealth()
    health.fail_node(1)
    rec = ObsRecorder()
    policy = DeliveryPolicy(max_retries=max_retries, ack_timeout=10 * US,
                            backoff=2.0, max_delay=1.0)
    comm = _ledger_comm(sim, topo, 2, health, delivery=policy, obs=rec)
    attempts = _count_transfers(monkeypatch)
    error, when = _send_once(sim, comm, 1, 4096)
    assert isinstance(error, DeliveryError)
    assert f"after {max_retries + 1} attempts" in str(error)
    assert attempts == [(0, 1)] * (max_retries + 1)
    assert comm.retry_counts == [max_retries, 0]
    assert when == pytest.approx(sum(policy.retry_delay(a)
                                     for a in range(max_retries)))
    retries = [e for e in rec.events if e.category == "mpi.retry"]
    assert [dict(e.attrs)["attempt"] for e in retries] == list(
        range(1, max_retries + 1))
    (send,) = rec.spans
    assert send.category == "mpi.send" and (send.t0, send.t1) == (0.0, when)
    assert dict(send.attrs)["attempts"] == max_retries + 1
    assert dict(send.attrs)["delivered"] is False


def test_perfect_policy_over_contended_fabric_changes_nothing(topo):
    """``DeliveryPolicy()`` over a contended fabric with a (healthy)
    ledger gives the policy-free run's finish time and span stream —
    sends, receives, collectives and link occupancy — less the send
    spans' ``attempts`` attribute, which is always 1."""
    nodes = 8

    def run(delivery):
        sim, rec = Simulator(), ObsRecorder()
        comm = _ledger_comm(sim, topo, nodes, FabricHealth(),
                            delivery=delivery, obs=rec)

        def body(rank):
            nxt, prev = (rank.index + 1) % nodes, (rank.index - 1) % nodes
            for i in range(6):
                yield from rank.send(nxt, size=64 if i % 3 else 256 * KIB, tag=i)
                yield from rank.recv(source=prev, tag=i)
            yield from rank.allreduce(rank.index, op=max)

        run_ranks(sim, comm, body)
        return sim.now, span_stream(rec), rec.events

    now_off, stream_off, events_off = run(None)
    now_on, stream_on, events_on = run(DeliveryPolicy())
    assert now_on == now_off
    sends = [s for s in stream_on if s["category"] == "mpi.send"]
    assert sends and all(s["attrs"].pop("attempts") == 1 for s in sends)
    assert any(s["category"] == "link" for s in stream_on)
    assert stream_on == stream_off
    assert events_on == events_off == []


def test_hops_exposed(sim, topo):
    fabric = ContendedFabric(sim, topology=topo)
    assert fabric.hops(Location(node=0), Location(node=1)) == 1
    assert fabric.hops(Location(node=0), Location(node=100)) == 3


def test_latency_part_is_hop_dependent(sim, topo):
    fabric = ContendedFabric(sim, topology=topo)
    model = IBLatencyModel()
    near = fabric.zero_byte_latency(Location(node=0), Location(node=1))
    far = fabric.zero_byte_latency(Location(node=0), Location(node=100))
    assert near == pytest.approx(model.software_overhead + 1 * model.hop_latency)
    assert far == pytest.approx(model.software_overhead + 3 * model.hop_latency)
    assert fabric.zero_byte_latency(Location(node=5), Location(node=5)) == 0.0


def test_incast_scales_with_sender_count(topo):
    """N-into-1 incast: total ejection time grows ~linearly in N."""
    durations = {}
    for n_senders in (2, 4):
        sim = Simulator()
        comm, fabric = make_comm(sim, topo, n_senders + 1)
        size = 250_000

        def body(rank, n=n_senders):
            if rank.index < n:
                yield from rank.send(n, size=size)
            else:
                for _ in range(n):
                    yield from rank.recv()

        run_ranks(sim, comm, body)
        durations[n_senders] = sim.now
    bw = IBLatencyModel().bandwidth
    assert durations[4] - durations[2] == pytest.approx(2 * 250_000 / bw, rel=0.2)


def test_uplink_contention_under_default_routing():
    """Eight same-crossbar nodes sending to another CU share one
    uplink under uplink-0 routing: per-flow rate collapses 8x."""
    topo2 = RoadrunnerTopology(cu_count=2)
    size = 500_000

    def run(spread):
        sim = Simulator()
        fabric = ContendedFabric(
            sim, topology=topo2, model_uplinks=True, spread_routing=spread
        )
        locations = [Location(node=i) for i in range(8)] + [
            Location(node=180 + i) for i in range(8)
        ]
        comm = SimMPI(sim, fabric, locations)

        def body(rank):
            if rank.index < 8:
                yield from rank.send(8 + rank.index, size=size)
            else:
                yield from rank.recv()

        for r in range(16):
            sim.process(body(comm.rank(r)), name=f"r{r}")
        sim.run()
        return sim.now

    concentrated = run(spread=False)
    spread_out = run(spread=True)
    bw_phase = size / IBLatencyModel().bandwidth
    # Default routing: all 8 flows share one uplink -> ~8 bw phases.
    assert concentrated >= 7.5 * bw_phase
    # Destination hashing spreads across the crossbar's 4 uplinks.
    assert spread_out <= concentrated / 3


def test_uplinks_not_modeled_by_default(sim, topo):
    fabric = ContendedFabric(sim, topology=topo)
    assert fabric._route_uplinks(0, 100) == [] or True  # attribute exists
    assert not fabric.model_uplinks


# ---------------------------------------------------------------------------
# Seeded permutation exchanges
# ---------------------------------------------------------------------------

KIB = 1024

#: deterministic summary of a :func:`seeded_exchange` over 60 nodes of
#: 2 CUs, recorded from the process-per-transfer fabric this one replaced
SUMMARY_FIXTURE = Path(__file__).parent / "fixtures" / "contended_summary.json"


def seeded_exchange(seed, cu_count, rounds, sizes, *, nodes=None,
                    model_uplinks=True, spread=False, obs=None):
    """Run a seeded permutation exchange, one rank per entry of ``nodes``
    (default: one per node of the topology).

    Every round each rank sends one message, sized by a draw from
    ``sizes``, to a random partner and then receives from the rank that
    drew it.  Returns ``(sim, comm, fabric, plan)`` after the run, where
    ``plan`` holds ``(dests, srcs, sizes)`` lists per round.
    """
    topo = RoadrunnerTopology(cu_count=cu_count)
    if nodes is None:
        nodes = range(topo.node_count)
    n = len(nodes)
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(rounds):
        dests = rng.permutation(n)
        srcs = np.empty_like(dests)
        srcs[dests] = np.arange(n)
        plan.append((dests.tolist(), srcs.tolist(),
                     rng.choice(sizes, n).tolist()))
    sim = Simulator()
    if obs is not None:
        sim.attach_observer(obs)
    fabric = ContendedFabric(sim, topology=topo, model_uplinks=model_uplinks,
                             spread_routing=spread, obs=obs)
    comm = SimMPI(sim, fabric, [Location(node=i) for i in nodes], obs=obs)

    def body(rank):
        i = rank.index
        for tag, (dests, srcs, msg_sizes) in enumerate(plan):
            yield from rank.send(dests[i], msg_sizes[i], tag=tag)
            yield from rank.recv(source=srcs[i], tag=tag)

    for i in range(n):
        sim.process(body(comm.rank(i)), name=f"rank{i}")
    sim.run()
    return sim, comm, fabric, plan


def test_recorded_summary_is_unchanged():
    """The 2-CU exchange's summary (span self-times, link occupancy and
    bytes, counters) equals the recorded one bit for bit.  The engine
    section counts bookkeeping dispatches, which the fabric design sets,
    so it is left out."""
    obs = ObsRecorder(sink=AggregatingSink(), flush_threshold=250)
    sim, _comm, _fabric, _plan = seeded_exchange(
        7, 2, 4, [0, 8 * KIB, 64 * KIB, 1024 * KIB], nodes=range(0, 360, 6),
        obs=obs)
    summary = deterministic_summary(obs, sim.now)
    del summary["engine"]
    summary = json.loads(json.dumps(summary, sort_keys=True))
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        SUMMARY_FIXTURE.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {SUMMARY_FIXTURE}")
    assert summary == json.loads(SUMMARY_FIXTURE.read_text())


def test_one_flow_record_per_message(monkeypatch):
    """The fabric's cost per message, seen through the seams an external
    tracer wraps (the class attributes): one fabric transfer per message,
    one link transfer per link a non-trivial message crosses (2 within a
    CU, 4 between CUs), and no condition event or helper process."""
    calls = {"fabric": 0, "link": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ContendedFabric, "transfer",
                        counted("fabric", ContendedFabric.transfer))
    monkeypatch.setattr(BandwidthLink, "transfer",
                        counted("link", BandwidthLink.transfer))
    # Two ranks share node 0; the rest spread over both CUs.
    nodes = [0, 0, 1, 9, 100, 179, 180, 181, 200, 359]
    obs = ObsRecorder(categories=())
    _sim, comm, fabric, plan = seeded_exchange(
        3, 2, 4, [0, 8 * KIB, 64 * KIB], nodes=nodes, obs=obs)

    expected_links = 0
    for dests, _srcs, sizes in plan:
        for i, (dest, size) in enumerate(zip(dests, sizes)):
            src_node, dst_node = nodes[i], nodes[dest]
            if size and src_node != dst_node:
                same_cu = src_node // 180 == dst_node // 180
                expected_links += 2 if same_cu else 4
    assert calls["fabric"] == sum(comm.sent_counts) == len(nodes) * len(plan)
    assert calls["link"] == expected_links > 0
    assert "AllOf" not in obs.events_by_class
    assert "fabric-transfer" not in obs.resumes_by_process
    assert sum(fabric.nic_bytes(0)) > 0


def test_finished_exchange_leaves_no_cyclic_garbage():
    """Once an op's result is dropped, reference counting frees its
    simulator, fabric, communicator, recorder and sink: no delivery
    cohort, flow record or link timer keeps a reference cycle for the
    cyclic garbage collector to find."""
    import gc

    gc.collect()
    gc.disable()
    try:
        obs = ObsRecorder(sink=AggregatingSink())
        result = seeded_exchange(
            11, 2, 4, [0, 8 * KIB, 64 * KIB],
            nodes=[5 * i for i in range(64)], obs=obs)
        assert sum(result[1].sent_counts) == 64 * 4
        assert obs.span_count > 0
        del result, obs
    finally:
        gc.enable()
    assert gc.collect() == 0
