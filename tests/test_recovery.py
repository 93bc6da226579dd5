"""Tests for the recovery orchestrator and failure-aware placement:
seeded fault plans, re-place/restore/continue through mid-iteration
faults, bitwise-deterministic replay, and the hop model the placement
study's DES costs rest on."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.comm.mpi import Location
from repro.network.routing import hop_count
from repro.network.topology import RoadrunnerTopology
from repro.resilience import FabricHealth
from repro.resilience.recovery import (
    draw_fault_plan,
    placement_penalty,
    run_with_recovery,
)
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep, SweepAborted
from repro.comm.cml import CellMessagePath
from repro.sweep3d.placement import (
    HopAwareFabric,
    failure_aware_locations,
    naive_respawn_locations,
    spe_locations,
    unusable_nodes,
)

# Small comm-heavy job: 64 ranks over two nodes, so a node fault kills
# half the job and internode traffic is on the critical path.
INP = SweepInput(it=2, jt=2, kt=8, mk=4, mmi=3)
DECOMP = Decomposition2D(16, 4)
GRIND = 5e-8


# -- fault plans ------------------------------------------------------------

def test_draw_fault_plan_deterministic_sorted_truncated():
    nodes = tuple(range(8))
    plan = draw_fault_plan(3, nodes, mtbf=10.0, horizon=30.0)
    assert plan == draw_fault_plan(3, nodes, mtbf=10.0, horizon=30.0)
    assert list(plan) == sorted(plan)
    assert all(0.0 < t < 30.0 for t, _node in plan)
    assert all(node in nodes for _t, node in plan)
    assert plan != draw_fault_plan(4, nodes, mtbf=10.0, horizon=30.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_draw_fault_plan_rejects_non_finite_or_non_positive(bad):
    """NaN passes a bare ``<= 0`` check and would yield an empty plan;
    ``mtbf=inf`` would raise ZeroDivisionError."""
    nodes = tuple(range(8))
    with pytest.raises(ValueError, match="finite and positive"):
        draw_fault_plan(1, nodes, bad, 10.0)
    with pytest.raises(ValueError, match="finite and positive"):
        draw_fault_plan(1, nodes, 10.0, bad)


def test_run_with_recovery_rejects_bad_arguments_before_running():
    """A NaN receive bound is refused as an argument, not retried as
    a fault 8 times; NaN checkpoint and restart costs are refused
    instead of giving a NaN wall clock."""
    nan = float("nan")
    with pytest.raises(ValueError, match="recv_timeout"):
        run_with_recovery(INP, DECOMP, GRIND, recv_timeout=nan, iterations=2)
    for kwargs in ({"checkpoint_time": nan}, {"restart_time": nan},
                   {"checkpoint_time": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            run_with_recovery(INP, DECOMP, GRIND, recv_timeout=1.0,
                              iterations=2, **kwargs)


def test_draw_fault_plan_validation():
    with pytest.raises(ValueError):
        draw_fault_plan(0, (0,), mtbf=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        draw_fault_plan(0, (0,), mtbf=1.0, horizon=0.0)


# -- hop model and placement ------------------------------------------------

def test_hop_aware_fabric_charges_routing_hops():
    """The placement fabric charges the network layer's hop_count: the
    Cell path's cost plus hop_latency per crossbar beyond the first."""
    import random

    topo = RoadrunnerTopology()
    fabric, path = HopAwareFabric(), CellMessagePath()
    rng = random.Random(7)
    pairs = [(rng.randrange(3060), rng.randrange(3060)) for _ in range(200)]
    pairs += [(0, 0), (0, 179), (0, 180), (0, 3059), (176, 178)]
    for a, b in pairs:
        src, dst = Location(node=a), Location(node=b, spe=1)
        expected = path.one_way_time(src, dst, 4096)
        if a != b:
            expected += fabric.hop_latency * max(0, hop_count(topo, a, b) - 1)
        assert fabric.one_way_time(src, dst, 4096) == expected, (a, b)


def test_unusable_nodes_covers_dead_access_links():
    health = FabricHealth()
    health.fail_node(7)
    health.fail_links([(("node", 0, 5), ("lower", 0, 0))])
    down = unusable_nodes(health, range(200))
    assert down == frozenset({5, 7})


def test_failure_aware_prefers_same_cu_naive_backfills_far():
    decomp = Decomposition2D(16, 8)  # 4 nodes: 0..3, all in CU 0
    base = spe_locations(decomp)
    health = FabricHealth()
    health.fail_node(1)
    aware = failure_aware_locations(decomp, health, base=base)
    naive = naive_respawn_locations(decomp, health, base=base)
    moved_aware = {l.node for l in aware} - {l.node for l in base}
    moved_naive = {l.node for l in naive} - {l.node for l in base}
    assert moved_aware == {4}      # lowest free node in the home CU
    assert moved_naive == {3059}   # far end of the machine
    # untouched ranks keep their exact locations under both policies
    for old, a, n in zip(base, aware, naive):
        if old.node != 1:
            assert a == old and n == old


def test_placement_raises_when_machine_exhausted():
    decomp = Decomposition2D(16, 8)
    health = FabricHealth()
    health.fail_node(0)
    with pytest.raises(ValueError):
        failure_aware_locations(decomp, health, machine_nodes=4)


def test_hop_aware_fabric_charges_extra_hops():
    fabric = HopAwareFabric()
    a, b_near, b_far = Location(node=0), Location(node=1), Location(node=3059)
    near = fabric.one_way_time(a, b_near, 4096)
    far = fabric.one_way_time(a, b_far, 4096)
    # nodes 0 and 1 share a lower crossbar (1 hop): no surcharge
    assert near == fabric.inner.one_way_time(a, b_near, 4096)
    # 0 -> 3059 crosses sides and crossbars (7 hops): 6 extra hops
    assert far == pytest.approx(near + 6 * fabric.hop_latency)
    # on-node messages never pay the surcharge
    same = Location(node=0, cell=1)
    assert fabric.one_way_time(a, same, 4096) == \
        fabric.inner.one_way_time(a, same, 4096)


def test_hop_aware_fabric_rejects_nodes_off_the_machine():
    fabric = HopAwareFabric()
    with pytest.raises(ValueError, match="node 5000 out of range"):
        fabric.one_way_time(Location(node=0), Location(node=5000), 0)


@pytest.mark.parametrize("hop_latency", [float("nan"), float("inf")])
def test_hop_aware_fabric_rejects_a_bad_hop_latency(hop_latency):
    with pytest.raises(ValueError, match="hop_latency"):
        HopAwareFabric(hop_latency=hop_latency)


# -- abort contract at the sweep layer --------------------------------------

def test_mid_iteration_fault_aborts_with_progress_and_retries():
    from repro.resilience import DeliveryPolicy, FaultInjector

    health = FabricHealth()
    fabric = HopAwareFabric()
    base = spe_locations(DECOMP)
    clean = ParallelSweep(INP, DECOMP, GRIND, fabric, locations=base)
    it_time = clean.run(iterations=1).iteration_time

    def hook(sim, procs, locs):
        injector = FaultInjector(sim, health=health)
        for proc, loc in zip(procs, locs):
            if loc.node == 1:
                injector.watch(1, proc)
        injector.fail_node_at(1.5 * it_time, 1)

    sweep = ParallelSweep(
        INP, DECOMP, GRIND, fabric, locations=base,
        delivery=DeliveryPolicy(health=health),
        recv_timeout=2.0 * it_time,
        fault_hook=hook,
    )
    with pytest.raises(SweepAborted) as exc:
        sweep.run(iterations=4)
    abort = exc.value
    assert 0 <= abort.completed_iterations < 4
    # detection bound: the survivors' bounded receives fire within one
    # recv_timeout of the fault, never the full remaining schedule
    assert 1.5 * it_time < abort.sim_time <= 1.5 * it_time + 3 * (2.0 * it_time)
    assert abort.retries > 0  # lost sends were retried before giving up


# -- recovery orchestration -------------------------------------------------

def test_no_fault_recovery_matches_plain_run_bit_for_bit():
    fabric = HopAwareFabric()
    base = spe_locations(DECOMP)
    plain = ParallelSweep(
        INP, DECOMP, GRIND, fabric, locations=base
    ).run(iterations=2)
    out = run_with_recovery(
        INP, DECOMP, GRIND, (),
        iterations=2, fabric=fabric, base_locations=base,
        checkpoint_time=0.0,
    )
    assert out.attempts == 1
    assert out.faults_hit == 0 and out.rework_iterations == 0
    assert out.wallclock == plain.iteration_time * 2
    assert np.array_equal(out.result.phi, plain.phi)


def test_recovery_survives_fault_and_replays_bitwise():
    fabric = HopAwareFabric()
    base = spe_locations(DECOMP)
    it_time = ParallelSweep(
        INP, DECOMP, GRIND, fabric, locations=base
    ).run(iterations=1).iteration_time
    plan = ((1.5 * it_time, 1),)

    def run(policy):
        return run_with_recovery(
            INP, DECOMP, GRIND, plan,
            iterations=4, placement=policy, fabric=fabric,
            base_locations=base, checkpoint_interval=2,
            recv_timeout=2.0 * it_time,
        )

    aware = run("aware")
    assert aware.attempts == 2 and aware.faults_hit == 1
    assert aware.iterations == 4 and aware.retries > 0
    assert [e.kind for e in aware.log] == ["restart", "complete"]
    assert aware.wallclock > 4 * it_time  # rework + detection cost money
    # bitwise replay: identical wall clock, log, and flux
    again = run("aware")
    assert again.wallclock == aware.wallclock
    assert again.log == aware.log
    assert np.array_equal(again.result.phi, aware.result.phi)
    # the naive placement pays at least the aware wall clock
    naive = run("naive")
    assert naive.faults_hit == 1
    assert aware.wallclock <= naive.wallclock
    # physics does not depend on where ranks landed
    assert np.array_equal(naive.result.phi, aware.result.phi)


def test_run_with_recovery_validation():
    with pytest.raises(ValueError):
        run_with_recovery(INP, DECOMP, GRIND, iterations=0)
    with pytest.raises(ValueError):
        run_with_recovery(INP, DECOMP, GRIND, checkpoint_interval=0)
    with pytest.raises(ValueError):
        run_with_recovery(INP, DECOMP, GRIND, checkpoint_time=-1.0)
    with pytest.raises(ValueError):
        run_with_recovery(INP, DECOMP, GRIND, placement="psychic")


def test_placement_penalty_reports_both_policies():
    report = placement_penalty(INP, DECOMP, GRIND, seed=1, iterations=4)
    assert report["faults"] >= 1  # seed 1 is known to strike this job
    assert report["aware_s"] <= report["naive_s"]
    assert report["penalty"] == report["naive_s"] / report["aware_s"]
    assert report["aware_slowdown"] > 1.0
    # same seed, same numbers
    again = placement_penalty(INP, DECOMP, GRIND, seed=1, iterations=4)
    assert again == report


def test_campaign_quick_seeds_within_bands():
    """The checked-in quick bands must accept a fresh 3-seed campaign
    (the deterministic subset of the nightly 100-seed run)."""
    script = Path(__file__).resolve().parents[1] / "examples" / "failure_study.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, str(script), "--campaign", "--seeds", "3"],
        capture_output=True, text=True, timeout=180, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "within 'quick' bands" in proc.stdout
