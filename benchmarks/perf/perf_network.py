"""Topology/latency sweep throughput, vectorized vs per-node reference.

The pre-PR implementations of ``latency_map``, ``hop_census`` and
``link_loads`` looped in Python over every destination (or flow) and
recomputed ``topo.split``/``lower_xbar``/``repr`` each time.  The
reference implementations below reproduce that algorithm verbatim, so
the smoke tier proves the vectorized paths return *identical* values
and the measured tier records an honest same-machine speedup
(>= 5x required on ``latency_map`` and warm ``link_loads``).

The contended fabric is checked the same way against the seed commit's
``ContendedFabric`` on the seed ``BandwidthLink`` (a process, an
``AllOf`` and an event per link for every message): the smoke tier
runs seeded permutation exchanges through both and requires bit-equal
receive times, finish times and per-NIC and per-link byte counts; the
measured tier times one exchange over 4 CUs on both stacks.
"""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np

from benchmarks.framework import (
    Case,
    Floor,
    PerfTest,
    SkipCase,
    best_seconds,
    load_seed_module,
    paired_seconds,
    perftest,
)
from benchmarks.framework.pytest_bridge import install_pytest_tests
from repro.comm.mpi import Location, SimMPI
from repro.network import loadmap, routing, simfabric
from repro.network.latency import IBLatencyModel
from repro.network.topology import RoadrunnerTopology
from repro.sim.engine import Simulator

MIN_NETWORK_SPEEDUP = 5.0

#: required ``contended_fabric`` speedup over the seed fabric stack: the
#: lowest of six measured-tier runs (1.85x to 2.48x on a shared 2-vCPU
#: x86_64 VM, Python 3.11) minus a ~15% noise margin
MIN_CONTENDED_SPEEDUP = 1.6

KIB = 1024


@functools.lru_cache(maxsize=None)
def _topology(cu_count: int = 17) -> RoadrunnerTopology:
    return RoadrunnerTopology(cu_count=cu_count)


# -- pre-PR reference algorithms (per-destination Python loops) -----------

def _reference_hop_count(topo, src, dst):
    if src == dst:
        return 0
    cu_s, _ = topo.split(src)
    cu_d, _ = topo.split(dst)
    xbar_s = topo.lower_xbar(src).index
    xbar_d = topo.lower_xbar(dst).index
    if cu_s == cu_d:
        return 1 if xbar_s == xbar_d else 3
    if topo.same_side(cu_s, cu_d):
        return 3 if xbar_s == xbar_d else 5
    return 5 if xbar_s == xbar_d else 7


def _reference_latency_map(model, topo, src=0):
    out = []
    for dst in range(topo.node_count):
        if src == dst:
            out.append(0.0)
        else:
            out.append(
                model.software_overhead
                + _reference_hop_count(topo, src, dst) * model.hop_latency
            )
    return out


def _reference_hop_census(topo, src=0):
    census: Counter = Counter()
    for dst in range(topo.node_count):
        census[_reference_hop_count(topo, src, dst)] += 1
    return census


def _reference_link_loads(topo, pairs, spread=False):
    loads: Counter = Counter()
    for src, dst in pairs:
        if src == dst:
            continue
        path = [
            topo.graph_node(src),
            *routing.route(topo, src, dst, spread=spread),
            topo.graph_node(dst),
        ]
        for u, v in zip(path, path[1:]):
            loads[tuple(sorted((repr(u), repr(v))))] += 1
    return loads


@functools.lru_cache(maxsize=1)
def _seed_fabric():
    """The seed commit's simfabric module, its ``BandwidthLink`` rebound
    to the seed resources class (it would import today's otherwise);
    None without git history."""
    resources = load_seed_module("src/repro/sim/resources.py", "_seed_sim_resources")
    fabric = load_seed_module(
        "src/repro/network/simfabric.py", "_seed_network_simfabric"
    )
    if resources is None or fabric is None:
        return None
    fabric.BandwidthLink = resources.BandwidthLink
    return fabric


def _exchange_plan(seed: int, nodes: list[int], rounds):
    """Per round ``(dests, srcs, sizes)`` of a seeded permutation
    exchange over ``len(nodes)`` ranks; ``rounds`` lists each round's
    size choices (one size repeated makes every message equal, so
    completions coincide)."""
    rng = np.random.default_rng(seed)
    n = len(nodes)
    plan = []
    for sizes in rounds:
        dests = rng.permutation(n)
        srcs = np.empty_like(dests)
        srcs[dests] = np.arange(n)
        plan.append((dests.tolist(), srcs.tolist(), rng.choice(sizes, n).tolist()))
    return plan


def _run_exchange(fabric_mod, cu_count, nodes, plan, model_uplinks, spread):
    """Run ``plan`` on ``fabric_mod.ContendedFabric``; returns the
    receive time per (rank, round), the finish time, per-NIC bytes and
    per-link bytes.  (Receives completing at one instant may do so in
    another order: the fabrics take different numbers of zero-delay
    dispatches to signal a transfer's end.)"""
    sim = Simulator()
    fabric = fabric_mod.ContendedFabric(
        sim, topology=_topology(cu_count), model_uplinks=model_uplinks,
        spread_routing=spread,
    )
    comm = SimMPI(sim, fabric, [Location(node=n) for n in nodes])
    received = {}

    def body(rank):
        i = rank.index
        for tag, (dests, srcs, sizes) in enumerate(plan):
            yield from rank.send(dests[i], sizes[i], tag=tag)
            yield from rank.recv(source=srcs[i], tag=tag)
            received[i, tag] = sim.now

    for i in range(len(nodes)):
        sim.process(body(comm.rank(i)), name=f"rank{i}")
    sim.run()
    nic = [fabric.nic_bytes(node) for node in sorted(set(nodes))]
    links = {
        link.name: link.bytes_transferred
        for table in (fabric._tx, fabric._rx, fabric._uplinks)
        for link in table.values()
    }
    return received, sim.now, nic, links


def _seed_oracle_exchanges():
    """60 exchanges: 1, 2 and 13 CUs (both inter-CU sides), uplinks and
    spread routing each on and off, 5 seeds.  48 ranks sit on random
    nodes, two of them on one node; rounds alternate all-64 KiB with
    mixed {0, 8 KiB, 64 KiB, 1 MiB} sizes."""
    rounds = [[64 * KIB], [0, 8 * KIB, 64 * KIB, 1024 * KIB]] * 2
    for cu_count in (1, 2, 13):
        node_count = _topology(cu_count).node_count
        for model_uplinks in (False, True):
            for spread in (False, True):
                for seed in range(5):
                    rng = np.random.default_rng(1000 * cu_count + seed)
                    nodes = rng.choice(node_count, 47, replace=False).tolist()
                    nodes.append(nodes[0])
                    plan = _exchange_plan(seed, nodes, rounds)
                    yield cu_count, nodes, plan, model_uplinks, spread


def _contended_workload():
    """The timed exchange: one rank per node of 4 CUs, uplinks modelled,
    4 rounds of {8 KiB, 64 KiB, 1 MiB} messages."""
    nodes = list(range(_topology(4).node_count))
    plan = _exchange_plan(1, nodes, [[8 * KIB, 64 * KIB, 1024 * KIB]] * 4)
    return 4, nodes, plan, True, False


def _pair_set(n_pairs: int = 765):
    """A deterministic mixed-locality flow set (intra-CU, same-side,
    cross-side)."""
    pairs = []
    for i in range(n_pairs):
        src = (i * 193) % 3060
        dst = (src + 97 + i * 389) % 3060
        pairs.append((src, dst))
    return pairs


@perftest
class NetworkVectorizationIdentity(PerfTest):
    """Smoke tier: vectorized results identical to the reference, and
    contended exchanges identical to the seed fabric stack."""

    name = "network_identity"
    title = "network: sweeps equal the per-node reference, fabric the seed's"
    tiers = ("smoke",)
    params = {
        "check": [
            "latency_map", "hop_census", "hop_vector", "link_loads",
            "contended_seed",
        ]
    }

    def sanity(self, case: Case):
        topo = _topology()
        if case.check == "contended_seed":
            seed = _seed_fabric()
            if seed is None:
                raise SkipCase("seed fabric unavailable (no git history)")
            for args in _seed_oracle_exchanges():
                assert _run_exchange(simfabric, *args) == _run_exchange(seed, *args)
        elif case.check == "latency_map":
            model = IBLatencyModel()
            assert model.latency_map(topo) == _reference_latency_map(model, topo)
        elif case.check == "hop_census":
            assert routing.hop_census(topo) == _reference_hop_census(topo)
        elif case.check == "hop_vector":
            hops = routing.hop_vector(topo, src=123)
            for dst in range(0, topo.node_count, 61):
                assert hops[dst] == _reference_hop_count(topo, 123, dst)
        else:
            pairs = _pair_set(128)
            for spread in (False, True):
                assert loadmap.link_loads(
                    topo, pairs, spread=spread
                ) == _reference_link_loads(topo, pairs, spread=spread)
        return None


@perftest
class NetworkSweepSpeedup(PerfTest):
    """Measured tier: wall-clock of each sweep vs its reference loop, and
    of a contended exchange vs the seed fabric stack."""

    name = "network"
    title = "network: sweep and contended-fabric speedups vs their references"
    tiers = ("measured",)
    section = "network"
    params = {"op": ["latency_map", "hop_census", "link_loads_warm", "contended_fabric"]}

    def measure(self, case: Case):
        topo = _topology()
        if case.op == "contended_fabric":
            seed = _seed_fabric()
            if seed is None:
                raise SkipCase("seed fabric unavailable (no git history)")
            args = _contended_workload()
            best = paired_seconds(
                {
                    "current": lambda: _run_exchange(simfabric, *args),
                    "seed": lambda: _run_exchange(seed, *args),
                },
                repeats=5,
            )
            t_now, t_ref = best["current"], best["seed"]
            return {
                "size": len(args[1]) * len(args[2]),
                "reference_ms": round(t_ref * 1e3, 4),
                "current_ms": round(t_now * 1e3, 4),
                "speedup": round(t_ref / t_now, 2),
            }
        if case.op == "latency_map":
            model = IBLatencyModel()
            current = lambda: model.latency_map(topo)  # noqa: E731
            reference = lambda: _reference_latency_map(model, topo)  # noqa: E731
            size = topo.node_count
        elif case.op == "hop_census":
            current = lambda: routing.hop_census(topo)  # noqa: E731
            reference = lambda: _reference_hop_census(topo)  # noqa: E731
            size = topo.node_count
        else:
            pairs = _pair_set()
            loadmap.link_loads(topo, pairs)  # warm the flow cache
            current = lambda: loadmap.link_loads(topo, pairs)  # noqa: E731
            reference = lambda: _reference_link_loads(topo, pairs)  # noqa: E731
            size = len(pairs)
        t_now = best_seconds(current, repeats=5)
        t_ref = best_seconds(reference, repeats=5)
        return {
            "size": size,
            "reference_ms": round(t_ref * 1e3, 4),
            "current_ms": round(t_now * 1e3, 4),
            "speedup": round(t_ref / t_now, 1),
        }

    def references_for(self, case: Case):
        # hop_census rides along unguarded, exactly as before.
        if case.op == "hop_census":
            return {}
        if case.op == "contended_fabric":
            return {"speedup": Floor(MIN_CONTENDED_SPEEDUP)}
        return {"speedup": Floor(MIN_NETWORK_SPEEDUP)}

    def publish(self, metrics):
        # The historical "network" section shape: the size field is
        # named per op (nodes for topology sweeps, pairs for flows,
        # messages for the contended exchange).
        size_keys = {"link_loads_warm": "pairs", "contended_fabric": "messages"}
        payload: dict = {}
        for op, m in metrics.items():
            entry = dict(m)
            size = entry.pop("size")
            payload[op] = {size_keys.get(op, "nodes"): int(size), **entry}
        payload["min_required_speedup"] = MIN_NETWORK_SPEEDUP
        payload["min_contended_speedup"] = MIN_CONTENDED_SPEEDUP
        return payload


install_pytest_tests(globals())
