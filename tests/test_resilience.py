"""Tests for the resilience subsystem: fault injection, retry delivery,
degraded routing, and the checkpoint/restart cost model."""

import pytest

from repro.comm.mpi import DeliveryError, Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from repro.network.crossbar import XbarId
from repro.network.intercu import uplink_edges
from repro.network.loadmap import (
    degraded_bisection_summary,
    degraded_link_loads,
    link_loads,
)
from repro.network.routing import (
    UNREACHABLE,
    degraded_hop_census,
    degraded_hop_vector,
    degraded_route,
    hop_count,
    hop_vector,
)
from repro.network.topology import RoadrunnerTopology
from repro.obs import ObsRecorder, span_stream
from repro.resilience import (
    CheckpointModel,
    DeliveryPolicy,
    FabricHealth,
    FaultInjector,
    RetryPolicy,
    checkpoint_clock,
    edge_key,
    sweep_failure_study,
)
from repro.sim import Simulator
from repro.sim.engine import Interrupt
from repro.units import US


def make_comm(n_ranks, delivery=None, obs=None, latency=1 * US):
    sim = Simulator()
    fabric = UniformFabric(Transport("test", latency=latency, bandwidth=1e9))
    comm = SimMPI(
        sim, fabric, [Location(node=i) for i in range(n_ranks)],
        delivery=delivery, obs=obs,
    )
    return sim, comm


# -- FabricHealth -----------------------------------------------------------

def test_health_node_bookkeeping():
    health = FabricHealth()
    assert health.node_ok(5) and not health.degraded
    health.fail_node(5)
    assert not health.node_ok(5) and health.degraded
    assert health.failed_nodes == frozenset({5})
    health.repair_node(5)
    assert health.node_ok(5) and not health.degraded


def test_health_links_are_undirected():
    health = FabricHealth()
    u, v = XbarId("L", 0, 0), XbarId("U", 0, 3)
    health.fail_link(v, u)
    assert not health.link_ok(u, v)
    assert health.failed_links == frozenset({edge_key(u, v)})
    health.repair_link(u, v)
    assert health.link_ok(v, u)


def test_edge_key_is_canonical():
    u, v = XbarId("F", 0, 0), XbarId("M", 0, 0)
    assert edge_key(u, v) == edge_key(v, u)
    node = ("node", 0, 0)
    assert edge_key(node, XbarId("L", 0, 0)) == edge_key(XbarId("L", 0, 0), node)


# -- FaultInjector ----------------------------------------------------------

def test_injector_timetable_is_seed_deterministic():
    def timetable(seed):
        inj = FaultInjector(Simulator(), seed=seed)
        inj.schedule_node_faults(range(50), mtbf=10.0, horizon=100.0,
                                 repair_after=1.0)
        return [(f.time, f.kind, f.target) for f in inj.faults]

    assert timetable(3) == timetable(3)
    assert timetable(3) != timetable(4)


def test_node_fault_interrupts_victim_parked_in_recv():
    sim, comm = make_comm(2)
    seen = {}

    def victim(rank):
        try:
            yield from rank.recv()
        except Interrupt as stop:
            seen["cause"] = stop.cause
            seen["time"] = sim.now

    injector = FaultInjector(sim)
    proc = sim.process(victim(comm.rank(1)), name="victim")
    injector.watch(1, proc)
    fault = injector.fail_node_at(0.5, 1)
    sim.run()
    assert seen["cause"] is fault
    assert seen["time"] == pytest.approx(0.5)
    assert not injector.health.node_ok(1)


def test_uncaught_fault_kills_victim_without_aborting_run():
    sim, comm = make_comm(2)

    def victim(rank):
        yield from rank.recv()  # parked forever; never handles the fault

    injector = FaultInjector(sim)
    proc = sim.process(victim(comm.rank(1)), name="victim")
    injector.watch(1, proc)
    injector.fail_node_at(0.25, 1)
    sim.run()  # must not raise
    assert not proc.is_alive


def test_fault_repair_restores_health_and_traces():
    sim = Simulator()
    rec = ObsRecorder()
    injector = FaultInjector(sim, obs=rec)
    injector.fail_node_at(1.0, 7, repair_after=2.0)
    sim.run()
    assert injector.health.node_ok(7)
    actions = [(e.t0, e.track, dict(e.attrs)["action"])
               for e in rec.events if e.category == "fault"]
    assert actions == [(1.0, 7, "fail"), (3.0, 7, "repair")]
    assert rec.spans == []  # a fault is an instant, not a span


def test_checkpoint_clock_respects_horizon_and_traces():
    sim = Simulator()
    rec = ObsRecorder()
    sim.process(checkpoint_clock(sim, interval=10.0, cost=2.0,
                                 obs=rec, horizon=50.0))
    sim.run()
    records = [e for e in rec.events if e.category == "checkpoint"]
    # Checkpoints start every 12 s of wall clock (10 work + 2 write);
    # the one starting at 46 still completes by the 50 s horizon, and
    # the next (would finish at 60) is never started.
    assert [e.t0 for e in records] == [10.0, 22.0, 34.0, 46.0]
    assert [dict(e.attrs)["n"] for e in records] == [1, 2, 3, 4]
    assert sim.now <= 50.0


# -- DeliveryPolicy / resilient send ---------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        DeliveryPolicy(drop_probability=1.0)
    with pytest.raises(ValueError):
        DeliveryPolicy(ack_timeout=0.0)
    with pytest.raises(ValueError):
        DeliveryPolicy(backoff=0.5)


def test_retry_delay_backs_off_exponentially_with_cap():
    policy = DeliveryPolicy(ack_timeout=10 * US, backoff=2.0, max_delay=35 * US)
    delays = [policy.retry_delay(k) for k in range(4)]
    assert delays == pytest.approx([10 * US, 20 * US, 35 * US, 35 * US])


# -- RetryPolicy: the shared backoff schedule (property tests) ---------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_retry_policies = st.builds(
    RetryPolicy,
    base_delay=st.floats(0.0, 10.0, allow_nan=False),
    backoff=st.floats(1.0, 8.0, allow_nan=False),
    max_delay=st.floats(0.001, 100.0, allow_nan=False),
    jitter=st.floats(0.0, 0.999, allow_nan=False),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=100, deadline=None)
@given(_retry_policies, st.integers(0, 40))
def test_retry_policy_is_a_pure_function_of_seed_and_attempt(policy, attempt):
    # identical fields => identical schedule; no hidden RNG state, so
    # call order and repetition are invisible
    clone = RetryPolicy(
        base_delay=policy.base_delay, backoff=policy.backoff,
        max_delay=policy.max_delay, jitter=policy.jitter, seed=policy.seed,
    )
    later = policy.delay(attempt + 1)  # perturb any would-be shared state
    assert policy.delay(attempt) == clone.delay(attempt)
    assert policy.delay(attempt) == policy.delay(attempt)
    assert later == clone.delay(attempt + 1)


@settings(max_examples=100, deadline=None)
@given(_retry_policies, st.integers(0, 40))
def test_retry_policy_delay_is_bounded(policy, attempt):
    raw = min(policy.base_delay * policy.backoff**attempt, policy.max_delay)
    d = policy.delay(attempt)
    assert d >= 0.0
    assert raw * (1.0 - policy.jitter) - 1e-12 <= d
    assert d <= raw * (1.0 + policy.jitter) + 1e-12
    assert d <= policy.max_delay * (1.0 + policy.jitter) + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.floats(1e-6, 1.0, allow_nan=False),   # ack_timeout
    st.floats(1.0, 8.0, allow_nan=False),    # backoff
    st.floats(1e-6, 10.0, allow_nan=False),  # max_delay
    st.integers(0, 20),                      # attempt
)
def test_jitter_free_retry_policy_matches_delivery_schedule(
    ack_timeout, backoff, max_delay, attempt
):
    # DeliveryPolicy delegates to a jitter-free RetryPolicy; both must
    # equal the closed form the DES timeline has always used
    delivery = DeliveryPolicy(
        ack_timeout=ack_timeout, backoff=backoff, max_delay=max_delay
    )
    shared = RetryPolicy(
        base_delay=ack_timeout, backoff=backoff, max_delay=max_delay
    )
    expected = min(ack_timeout * backoff**attempt, max_delay)
    assert delivery.retry_delay(attempt) == shared.delay(attempt)
    assert shared.delay(attempt) == expected
    assert shared.schedule(3) == [shared.delay(a) for a in range(3)]


def test_send_to_failed_node_exhausts_retries():
    health = FabricHealth()
    health.fail_node(1)
    rec = ObsRecorder()
    policy = DeliveryPolicy(health=health, ack_timeout=10 * US,
                            backoff=2.0, max_retries=3, max_delay=1.0)
    sim, comm = make_comm(2, delivery=policy, obs=rec)
    outcome = {}

    def sender(rank):
        try:
            yield from rank.send(1, size=0)
        except DeliveryError:
            outcome["time"] = sim.now

    sim.process(sender(comm.rank(0)), name="sender")
    sim.run()
    # 4 attempts; backoff waits of 10, 20, 40 us between them.
    assert outcome["time"] == pytest.approx(70 * US)
    assert comm.retry_counts[0] == 3
    retries = [e for e in rec.events if e.category == "mpi.retry"]
    assert [dict(e.attrs)["attempt"] for e in retries] == [1, 2, 3]
    # the undeliverable send still closes its span, marked as such
    (send,) = rec.spans
    assert send.category == "mpi.send" and send.t0 == 0.0
    assert send.t1 == outcome["time"]
    assert dict(send.attrs)["attempts"] == 4
    assert dict(send.attrs)["delivered"] is False


def test_lossy_delivery_is_seed_deterministic_and_eventually_delivers():
    def run(seed):
        rec = ObsRecorder()
        policy = DeliveryPolicy(drop_probability=0.5, seed=seed,
                                ack_timeout=10 * US, max_retries=20)
        sim, comm = make_comm(2, delivery=policy, obs=rec)
        got = []

        def sender(rank):
            for _ in range(20):
                yield from rank.send(1, size=100)

        def receiver(rank):
            for _ in range(20):
                msg = yield from rank.recv()
                got.append(msg.size)

        sim.process(sender(comm.rank(0)), name="s")
        sim.process(receiver(comm.rank(1)), name="r")
        sim.run()
        return got, sim.now, rec.spans + rec.events

    got_a, now_a, rec_a = run(11)
    got_b, now_b, rec_b = run(11)
    assert got_a == [100] * 20
    assert (got_a, now_a, rec_a) == (got_b, now_b, rec_b)
    assert any(r.category == "mpi.retry" for r in rec_a)  # 50% loss retries


def _collective_workload(sim, comm, result):
    def body(rank):
        yield from rank.send((rank.index + 1) % comm.size, size=4096, tag=1)
        yield from rank.recv(tag=1)
        yield from rank.barrier()
        total = yield from rank.allreduce(rank.index, lambda a, b: a + b)
        result[rank.index] = (total, sim.now)

    for r in range(comm.size):
        sim.process(body(comm.rank(r)), name=f"rank{r}")


def test_perfect_policy_matches_disabled_path_exactly():
    """DeliveryPolicy() (perfect) must not change one event: same spans
    (less the resilient path's own ``attempts`` attribute), same finish
    time, no RNG draws — the zero-overhead contract."""
    rec_off = ObsRecorder()
    sim_off, comm_off = make_comm(4, obs=rec_off)
    result_off = {}
    _collective_workload(sim_off, comm_off, result_off)
    sim_off.run()

    policy = DeliveryPolicy()
    rng_before = policy._rng.getstate()
    rec_on = ObsRecorder()
    sim_on, comm_on = make_comm(4, delivery=policy, obs=rec_on)
    result_on = {}
    _collective_workload(sim_on, comm_on, result_on)
    sim_on.run()

    assert result_on == result_off
    assert sim_on.now == sim_off.now
    stream_on = span_stream(rec_on)
    for span in stream_on:
        if span["category"] == "mpi.send":
            assert span["attrs"].pop("attempts") == 1
    assert stream_on == span_stream(rec_off)
    assert rec_on.events == rec_off.events == []
    assert comm_on.retry_counts == [0] * 4
    assert policy._rng.getstate() == rng_before


# -- degraded routing -------------------------------------------------------

@pytest.fixture(scope="module")
def topo():
    return RoadrunnerTopology(cu_count=17)


def test_degraded_hop_vector_matches_closed_form_when_healthy(topo):
    assert (degraded_hop_vector(topo, 0, frozenset())
            == hop_vector(topo, 0)).all()


@pytest.mark.parametrize("edge_index", [0, 1, 37, 95])
def test_census_sums_to_node_count_with_failed_uplink(topo, edge_index):
    failed = frozenset({edge_key(*uplink_edges(0)[edge_index])})
    census = degraded_hop_census(topo, 0, failed)
    assert sum(census.values()) == topo.node_count == 3060
    assert UNREACHABLE not in census  # one uplink never partitions


@pytest.mark.parametrize("level_pair", [("F", "M"), ("M", "T")])
def test_census_sums_to_node_count_with_failed_chain_link(topo, level_pair):
    a, b = level_pair
    failed = frozenset({edge_key(XbarId(a, 0, 0), XbarId(b, 0, 0))})
    census = degraded_hop_census(topo, 0, failed)
    assert sum(census.values()) == topo.node_count == 3060
    assert UNREACHABLE not in census


def test_degraded_route_avoids_failed_links_at_same_length(topo):
    src, dst = 0, 3059  # opposite sides of the fat tree
    baseline = hop_count(topo, src, dst)
    path = degraded_route(topo, src, dst, frozenset())
    assert len(path) == baseline
    # Fail the first uplink a route would naturally take.
    failed = frozenset({edge_key(*uplink_edges(0)[0])})
    rerouted = degraded_route(topo, src, dst, failed)
    assert len(rerouted) == baseline  # plenty of equal-cost alternatives
    edges = {edge_key(u, v) for u, v in zip(rerouted, rerouted[1:])}
    assert not (edges & failed)


def test_severed_access_link_partitions_one_node(topo):
    access = edge_key(topo.graph_node(1), XbarId("L", 0, 0))
    census = degraded_hop_census(topo, 0, frozenset({access}))
    assert census[UNREACHABLE] == 1
    assert sum(census.values()) == topo.node_count
    assert degraded_route(topo, 0, 1, frozenset({access})) is None


def test_degraded_bisection_summary_prices_losses():
    uplink = edge_key(*uplink_edges(3)[0])
    chain = edge_key(XbarId("M", 5, 2), XbarId("T", 5, 2))
    summary = degraded_bisection_summary([uplink, chain])
    assert summary["failed_links"] == 2.0
    assert summary["uplinks_lost"] == 1.0
    assert summary["worst_cu_uplinks_remaining"] == 95.0
    assert summary["cross_side_links_lost"] == 1.0
    assert summary["cross_side_capacity_remaining"] == 95 * 2e9
    assert summary["worst_cu_oversubscription"] == pytest.approx(180 / 95)
    assert summary["far_side_per_node_share_degraded"] < summary[
        "far_side_per_node_share"]


def test_fm_and_mt_failures_of_same_chain_count_once():
    fm = edge_key(XbarId("F", 1, 4), XbarId("M", 1, 4))
    mt = edge_key(XbarId("M", 1, 4), XbarId("T", 1, 4))
    summary = degraded_bisection_summary([fm, mt])
    assert summary["cross_side_links_lost"] == 1.0


# -- checkpoint model -------------------------------------------------------

def test_daly_interval_refines_young():
    model = CheckpointModel(mtbf=3600.0, checkpoint_time=60.0)
    young = model.young_interval()
    daly = model.daly_interval()
    assert young == pytest.approx((2 * 60.0 * 3600.0) ** 0.5)
    # Daly's correction is small when delta << M.
    assert abs(daly - young) / young < 0.25
    # ... and the optimum it picks is at least as good as Young's.
    assert model.expected_slowdown(daly) <= model.expected_slowdown(young) + 1e-12


def test_optimal_interval_beats_fixed_choices():
    model = CheckpointModel.from_node_mtbf(
        node_mtbf=10 * 8760 * 3600.0, nodes=3060,
        checkpoint_time=120.0, restart_time=300.0,
    )
    best = model.expected_slowdown()
    for tau in (300.0, 1200.0, 3600.0, 7200.0, 4 * 3600.0):
        assert best <= model.expected_slowdown(tau) + 1e-12
    assert best > 1.0  # failures always cost something


def test_expected_runtime_scales_linearly_with_solve_time():
    model = CheckpointModel(mtbf=1800.0, checkpoint_time=30.0)
    one = model.expected_runtime(1000.0)
    assert model.expected_runtime(2000.0) == pytest.approx(2 * one)
    assert model.expected_runtime(0.0) == 0.0


def test_from_node_mtbf_aggregates():
    model = CheckpointModel.from_node_mtbf(3060.0, 3060, checkpoint_time=1.0)
    assert model.mtbf == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CheckpointModel.from_node_mtbf(100.0, 0, checkpoint_time=1.0)
    with pytest.raises(ValueError):
        CheckpointModel(mtbf=-1.0, checkpoint_time=1.0)


def test_sweep_failure_study_rows_improve_with_mtbf():
    study = sweep_failure_study(node_mtbf_hours=(8760.0, 87600.0),
                                campaign_hours=1.0)
    assert study["nodes"] == 3060
    assert len(study["rows"]) == 2
    worse, better = study["rows"]
    assert worse["expected_slowdown"] > better["expected_slowdown"] > 1.0
    assert worse["daly_interval_s"] < better["daly_interval_s"]
    for row in study["rows"]:
        assert row["expected_wallclock_hours"] == pytest.approx(
            row["expected_slowdown"] * study["campaign_hours"]
        )


# -- correlated power-domain failures ---------------------------------------

def test_correlated_faults_take_down_whole_domains():
    inj = FaultInjector(Simulator(), seed=5)
    placed = inj.schedule_correlated_node_faults(
        range(360), mtbf=50.0, horizon=200.0, domain_size=180
    )
    node_faults = [f for f in inj.faults if f.kind == "node"]
    assert placed == len(node_faults) > 0
    # every event strikes all 180 members of one domain at one instant
    by_time = {}
    for f in node_faults:
        by_time.setdefault(f.time, set()).add(f.target)
    for nodes in by_time.values():
        domains = {n // 180 for n in nodes}
        assert len(domains) == 1
        (d,) = domains
        assert nodes == set(range(d * 180, (d + 1) * 180))


def test_correlated_faults_seed_deterministic_and_pairwise():
    def timetable(seed, domain_size):
        inj = FaultInjector(Simulator(), seed=seed)
        inj.schedule_correlated_node_faults(
            range(40), mtbf=5.0, horizon=100.0, domain_size=domain_size
        )
        return [(f.time, f.kind, f.target) for f in inj.faults]

    assert timetable(2, 2) == timetable(2, 2)
    assert timetable(2, 2) != timetable(3, 2)
    # triblade pairs: node failures come in even counts
    assert len(timetable(2, 2)) % 2 == 0


def test_from_node_mtbf_burst_size_stretches_event_mtbf():
    independent = CheckpointModel.from_node_mtbf(
        87600.0, 3060, checkpoint_time=600.0
    )
    cu_burst = CheckpointModel.from_node_mtbf(
        87600.0, 3060, checkpoint_time=600.0, burst_size=180
    )
    assert cu_burst.mtbf == pytest.approx(independent.mtbf * 180)
    # rarer (bigger) events: longer Daly interval, smaller slowdown
    assert cu_burst.daly_interval() > independent.daly_interval()
    assert (cu_burst.expected_slowdown(cu_burst.daly_interval())
            < independent.expected_slowdown(independent.daly_interval()))
    with pytest.raises(ValueError):
        CheckpointModel.from_node_mtbf(
            87600.0, 3060, checkpoint_time=600.0, burst_size=0
        )


def test_from_pfs_prices_checkpoint_from_panasas():
    from repro.io.panasas import PanasasModel

    model = CheckpointModel.from_pfs(87600.0 * 3600.0, 3060)
    assert model.checkpoint_time == pytest.approx(
        PanasasModel().checkpoint_time(0.5)
    )
    assert model.mtbf == pytest.approx(87600.0 * 3600.0 / 3060)


def test_sweep_failure_study_defaults_to_pfs_and_threads_burst():
    from repro.io.panasas import PanasasModel

    study = sweep_failure_study(node_mtbf_hours=(87600.0,), campaign_hours=1.0)
    assert study["checkpoint_time_s"] == pytest.approx(
        PanasasModel().checkpoint_time(0.5)
    )
    assert study["burst_size"] == 1
    burst = sweep_failure_study(
        node_mtbf_hours=(87600.0,), campaign_hours=1.0, burst_size=180
    )
    assert burst["burst_size"] == 180
    assert (burst["rows"][0]["expected_slowdown"]
            < study["rows"][0]["expected_slowdown"])
    # Daly interval stretches ~sqrt(burst) while delta << tau holds
    ratio = burst["rows"][0]["daly_interval_s"] / study["rows"][0]["daly_interval_s"]
    assert 0.5 * 180 ** 0.5 < ratio < 1.5 * 180 ** 0.5


# -- degraded link loads ----------------------------------------------------

def test_degraded_link_loads_matches_healthy_when_nothing_failed(topo):
    pairs = [(n, 180 + n) for n in range(8)]
    healthy = link_loads(topo, pairs)
    degraded, unroutable = degraded_link_loads(topo, pairs, frozenset())
    assert not unroutable
    assert degraded == healthy


def test_degraded_link_loads_concentrates_on_survivors(topo):
    pairs = [(n, 180 + n) for n in range(32)]
    dead = [edge_key(*e) for e in uplink_edges(0)[:2]]
    healthy = link_loads(topo, pairs, spread=True)
    degraded, unroutable = degraded_link_loads(topo, pairs, frozenset(dead))
    assert not unroutable
    assert sum(degraded.values()) > 0
    for edge in dead:
        assert degraded[edge] == 0  # nothing rides a dead uplink
    # the surviving uplinks absorb the displaced flows
    assert max(degraded.values()) > max(healthy.values())


def test_degraded_link_loads_reports_unroutable_pairs(topo):
    access = edge_key(topo.graph_node(1), XbarId("L", 0, 0))
    loads, unroutable = degraded_link_loads(
        topo, [(0, 1), (0, 2)], frozenset({access})
    )
    assert unroutable == [(0, 1)]
    assert sum(loads.values()) > 0  # the routable flow still lands
