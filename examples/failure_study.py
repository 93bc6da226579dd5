#!/usr/bin/env python
"""Failure study: what breaking parts of Roadrunner costs.

The paper measures a perfect machine; at 3,060 nodes, failure is a
first-order effect.  Six experiments on top of the reproduced models:

1. **Seeded fault injection.**  A lossy, failing fabric under a ring
   workload with retry/backoff delivery — run twice with the same seed
   to demonstrate the determinism contract holds through faults.
2. **Degraded fabric.**  Fail inter-CU uplinks and an inter-CU switch
   chain, recompute the Table I hop census by BFS around the damage,
   and price the lost bisection bandwidth.
3. **Checkpoint economics.**  The Young/Daly optimal-interval model
   over a node-MTBF x checkpoint-interval sweep, anchored to the
   full-machine Sweep3D iteration time.
4. **Correlated power domains.**  One failure stream per CU or
   triblade-pair domain instead of independent nodes: rarer (but
   larger) interrupting events stretch the Daly-optimal interval.
5. **Rerouted link loads, priced in the DES.**  Fail uplinks, pile the
   rerouted flows onto the survivors, and feed the measured
   concentration into a ``Transport.derated`` sweep point.
6. **Surviving mid-sweep faults.**  ``run_with_recovery`` drives a
   distributed sweep through an injected fault plan twice — failure-
   aware placement vs a locality-blind respawn — and measures the
   placement penalty under identical faults.

Run:  python examples/failure_study.py
      python examples/failure_study.py --campaign --seeds 100
      python examples/failure_study.py --campaign --write-bands
      python examples/failure_study.py --campaign --seeds 100 \\
          --workers 4 --cache-dir .campaign-cache --report report.json

``--campaign`` replays the seeded placement-penalty experiment over
many fault seeds and checks the aggregate retry counts and slowdown
distributions against the checked-in bands in ``BENCH_campaign.json``
(the nightly CI job runs it at 100 seeds).  The replays go through the
campaign service (``repro.campaign``): ``--workers N`` fans the seeds
over a process pool and ``--cache-dir`` enables the content-addressed
artifact cache, so an identical rerun performs zero simulations — the
aggregate is identical either way, seed for seed, byte for byte.
"""

import argparse
import json
import pathlib
import sys
from dataclasses import replace

from repro.comm.cml import INTERNODE_CELL_PATH, CellMessagePath
from repro.comm.mpi import DeliveryError, Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from repro.core.report import format_table
from repro.network.crossbar import XbarId
from repro.network.intercu import uplink_edges
from repro.network.loadmap import (
    degraded_bisection_summary,
    degraded_link_loads,
    link_loads,
)
from repro.network.routing import UNREACHABLE, degraded_hop_census
from repro.network.topology import RoadrunnerTopology
from repro.obs import ObsRecorder
from repro.resilience import (
    CheckpointModel,
    DeliveryPolicy,
    FabricHealth,
    FaultInjector,
    edge_key,
    placement_penalty,
    sweep_failure_study,
)
from repro.sim import Simulator
from repro.sim.engine import Interrupt
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.placement import HopAwareFabric, spe_locations
from repro.units import US

RANKS = 8
HORIZON = 2.0
NODE_MTBF = 0.8  # seconds of simulated time: aggressive, to see faults

#: the recovery experiments' sweep job: 64 ranks on two triblades,
#: communication-heavy (tiny grind) so placement distance is visible
CAMPAIGN_INP = SweepInput(it=2, jt=2, kt=8, mk=4, mmi=3)
CAMPAIGN_DECOMP = Decomposition2D(16, 4)
CAMPAIGN_GRIND = 5e-8
CAMPAIGN_ITERATIONS = 4

BANDS_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


def run_once(seed: int) -> list:
    """One seeded faulty run; returns every recorded span and event."""
    sim = Simulator()
    obs = ObsRecorder()
    health = FabricHealth()
    policy = DeliveryPolicy(
        drop_probability=0.05, seed=seed, health=health,
        ack_timeout=50 * US, max_retries=6,
    )
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    comm = SimMPI(
        sim, fabric, [Location(node=i) for i in range(RANKS)],
        delivery=policy, obs=obs,
    )
    injector = FaultInjector(sim, health=health, seed=seed, obs=obs)
    injector.schedule_node_faults(range(RANKS), mtbf=NODE_MTBF, horizon=HORIZON)

    def body(rank):
        # Relay tokens around the ring until the horizon; survive both
        # our own node's fault (Interrupt) and dead peers (DeliveryError).
        peer = (rank.index + 1) % RANKS
        while sim.now < HORIZON:
            try:
                yield from rank.send(peer, size=4096)
                yield sim.timeout(0.01)
            except Interrupt:
                return  # our node died
            except DeliveryError:
                peer = (peer + 1) % RANKS  # route around the dead peer

    for r in range(RANKS):
        proc = sim.process(body(comm.rank(r)), name=f"rank{r}")
        injector.watch(r, proc)
    sim.run(until=HORIZON)
    return obs.spans + obs.events


def fault_injection_study() -> None:
    print("1. Seeded fault injection (determinism under failure)")
    print("=====================================================")
    first = run_once(seed=42)
    second = run_once(seed=42)
    faults = sum(1 for r in first if r.category == "fault")
    retries = sum(1 for r in first if r.category == "mpi.retry")
    sends = sum(1 for r in first if r.category == "mpi.send")
    print(f"trace records: {len(first)} "
          f"(sends {sends}, retries {retries}, faults {faults})")
    print(f"identical traces: {first == second}")
    other = run_once(seed=7)
    print(f"different seed differs: {first != other}")
    print()


def degraded_fabric_study() -> None:
    print("2. Degraded fabric (rerouting around failed links)")
    print("==================================================")
    topo = RoadrunnerTopology()
    health = FabricHealth()
    # Fail CU 0's first three uplinks and one cross-side F-M chain.
    health.fail_links(uplink_edges(0)[:3])
    health.fail_link(XbarId("F", 0, 0), XbarId("M", 0, 0))
    census = degraded_hop_census(topo, src=0, failed_links=health.failed_links)
    total = sum(census.values())
    rows = [
        ("unreachable" if h == UNREACHABLE else str(h), n)
        for h, n in sorted(census.items())
    ]
    rows.append(("total", total))
    print(format_table(["hops from node 0", "destinations"], rows,
                       title="Degraded hop census (BFS around failures)"))
    print(f"census sums to node count: {total == topo.node_count} ({total})")
    summary = degraded_bisection_summary(health.failed_links)
    print(f"uplinks lost: {summary['uplinks_lost']:.0f} "
          f"(worst CU oversubscription "
          f"{summary['worst_cu_oversubscription']:.3f}:1, "
          f"healthy {summary['cu_oversubscription']:.3f}:1)")
    print(f"cross-side chains lost: {summary['cross_side_links_lost']:.0f} "
          f"of 96 ({summary['bisection_fraction_lost']:.1%} of bisection, "
          f"{summary['cross_side_capacity_lost'] / 1e9:.0f} GB/s)")
    print()


def checkpoint_study() -> None:
    print("3. Checkpoint/restart economics (Young/Daly)")
    print("============================================")
    nodes, delta, restart = 3060, 120.0, 300.0
    intervals = [600.0, 1800.0, 3600.0, 7200.0]
    header = ["node MTBF", *[f"tau={i / 60:.0f}min" for i in intervals],
              "Daly-optimal"]
    rows = []
    for years in (1, 5, 10, 25):
        model = CheckpointModel.from_node_mtbf(
            years * 8760 * 3600.0, nodes, delta, restart
        )
        cells = [f"{model.expected_slowdown(i):.3f}x" for i in intervals]
        cells.append(f"{model.expected_slowdown():.3f}x "
                     f"@ {model.daly_interval() / 60:.0f}min")
        rows.append((f"{years}y", *cells))
    print(format_table(header, rows,
                       title="Expected slowdown vs checkpoint interval"))
    ten_year = CheckpointModel.from_node_mtbf(
        10 * 8760 * 3600.0, nodes, delta, restart
    )
    print(f"Daly optimum beats every fixed interval above; at 10y node "
          f"MTBF the machine-level MTBF is {ten_year.mtbf / 3600:.1f} h")


def correlated_failure_study() -> None:
    print("4. Correlated power-domain failures (Daly-optimum shift)")
    print("========================================================")
    rows = []
    for label, burst in (("independent", 1), ("triblade pair", 2),
                         ("CU domain", 180)):
        study = sweep_failure_study(burst_size=burst)
        ten_year = study["rows"][2]  # the 10y node-MTBF row
        rows.append((
            label, str(burst),
            f"{ten_year['system_mtbf_hours']:.1f}",
            f"{ten_year['daly_interval_s'] / 60:.0f}",
            f"{ten_year['expected_slowdown']:.3f}x",
        ))
    print(format_table(
        ["failure domain", "burst", "event MTBF (h)",
         "Daly interval (min)", "slowdown"],
        rows,
        title="10y node MTBF, 3,060 nodes, PFS-priced checkpoints",
    ))
    print("same per-node MTBF: whole-CU bursts interrupt the job 180x "
          "less often,\nso the Daly optimum stretches ~sqrt(180) and "
          "the failure tax nearly vanishes")
    print()


def derated_sweep_study() -> None:
    print("5. Rerouted link loads, priced in the DES")
    print("=========================================")
    topo = RoadrunnerTopology()
    health = FabricHealth()
    # CU 0 -> CU 1 traffic, spread across CU 0's four uplinks.
    pairs = [(n, 180 + n) for n in range(32)]
    healthy = link_loads(topo, pairs, spread=True)
    health.fail_links(uplink_edges(0)[:2])
    degraded, unroutable = degraded_link_loads(
        topo, pairs, health.failed_links
    )
    hmax, dmax = max(healthy.values()), max(degraded.values())
    factor = min(1.0, hmax / dmax)
    print(f"hottest link: {hmax} flows healthy (spread routing) -> "
          f"{dmax} rerouted around 2 dead uplinks "
          f"({len(unroutable)} pairs unroutable)")
    print(f"surviving-uplink bandwidth share: {factor:.3f} of healthy")
    # Feed the concentration into the DES: derate the IB leg of the
    # internode pipeline and rerun one sweep point on each fabric.
    legs = list(INTERNODE_CELL_PATH.legs)
    legs[2] = legs[2].derated(factor)
    degraded_path = CellMessagePath(internode=replace(
        INTERNODE_CELL_PATH,
        name=f"{INTERNODE_CELL_PATH.name} (derated)",
        legs=tuple(legs),
    ))
    locations = spe_locations(CAMPAIGN_DECOMP)
    times = {}
    for label, fabric in (
        ("healthy", HopAwareFabric()),
        ("derated", HopAwareFabric(degraded_path)),
    ):
        sweep = ParallelSweep(
            CAMPAIGN_INP, CAMPAIGN_DECOMP, CAMPAIGN_GRIND, fabric,
            locations=locations,
        )
        times[label] = sweep.run(iterations=2).iteration_time
    print(f"DES sweep point ({CAMPAIGN_DECOMP.size} ranks, 2 nodes): "
          f"{times['healthy'] * 1e3:.3f} ms/iter healthy, "
          f"{times['derated'] * 1e3:.3f} ms/iter derated "
          f"({times['derated'] / times['healthy']:.3f}x)")
    print()


def placement_recovery_study() -> None:
    print("6. Surviving mid-sweep faults: the placement penalty")
    print("====================================================")
    report = placement_penalty(
        CAMPAIGN_INP, CAMPAIGN_DECOMP, CAMPAIGN_GRIND, seed=1,
        iterations=CAMPAIGN_ITERATIONS,
    )
    print(f"fault plan (seed {report['seed']}): {report['faults']} "
          f"node failure(s) mid-campaign, {report['restarts']} restart(s)")
    print(f"fault-free: {report['fault_free_s'] * 1e3:.3f} ms")
    print(f"failure-aware placement: {report['aware_s'] * 1e3:.3f} ms "
          f"({report['aware_slowdown']:.3f}x)")
    print(f"naive respawn placement: {report['naive_s'] * 1e3:.3f} ms "
          f"({report['naive_slowdown']:.3f}x)")
    print(f"placement penalty (naive/aware): {report['penalty']:.4f}x")
    print("same seeded fault plan both times; the aware run respawns "
          "on the failed\nnode's own CU, the naive run drags the tile "
          "to the far end of the machine")
    print()


# -- the campaign ------------------------------------------------------------

#: the campaign job expressed as a campaign-service scenario config
#: (same numbers as the CAMPAIGN_* constants above)
CAMPAIGN_CONFIG = {
    "it": CAMPAIGN_INP.it, "jt": CAMPAIGN_INP.jt, "kt": CAMPAIGN_INP.kt,
    "mk": CAMPAIGN_INP.mk, "mmi": CAMPAIGN_INP.mmi,
    "npe_i": CAMPAIGN_DECOMP.npe_i, "npe_j": CAMPAIGN_DECOMP.npe_j,
    "grind": CAMPAIGN_GRIND,
    "iterations": CAMPAIGN_ITERATIONS,
}


def run_campaign(seeds: int, workers: int = 1, cache_dir: str | None = None,
                 journal: str | None = None):
    """Placement-penalty replays over ``seeds`` fault seeds through the
    campaign service; returns ``(aggregate, campaign_report)`` where
    the aggregate is the dict the bands file pins.

    The per-seed rows come back from
    :class:`repro.campaign.CampaignService` in seed order regardless of
    ``workers``, so the aggregate is worker-count-invariant (and, with
    a ``cache_dir``, free on a warm cache).  ``journal`` (requires
    ``cache_dir``) write-ahead logs the run; a killed study resumes
    with ``python -m repro campaign --resume <journal>``."""
    from repro.campaign import CampaignService, grid

    specs = grid("placement-penalty", seeds, CAMPAIGN_CONFIG)
    service = CampaignService(cache_dir, workers=workers)
    report = service.run(specs, journal=journal)
    bad = [o for o in report.outcomes if o.state != "done"]
    if bad:
        raise RuntimeError(
            f"{len(bad)} campaign job(s) failed; first: {bad[0].error}"
        )
    rows = report.artifacts()
    n = len(rows)
    faulty = [r for r in rows if r["faults"]]
    summary = {
        "seeds": n,
        "faulty_seeds": len(faulty),
        "faults_total": sum(r["faults"] for r in rows),
        "restarts_total": sum(r["restarts"] for r in rows),
        "retries_total": sum(r["retries"] for r in rows),
        "rework_iterations_total": sum(r["rework_iterations"] for r in rows),
        "aware_slowdown_mean": sum(r["aware_slowdown"] for r in rows) / n,
        "aware_slowdown_max": max(r["aware_slowdown"] for r in rows),
        "naive_slowdown_mean": sum(r["naive_slowdown"] for r in rows) / n,
        "penalty_mean": sum(r["penalty"] for r in rows) / n,
        "penalty_max": max(r["penalty"] for r in rows),
    }
    return summary, report


def check_bands(summary: dict, bands: dict) -> list[str]:
    """Band violations (empty = within bands).  Each band is a
    ``[lo, hi]`` pair keyed by a summary statistic."""
    violations = []
    for key, (lo, hi) in bands.items():
        value = summary.get(key)
        if value is None:
            violations.append(f"{key}: missing from summary")
        elif not lo <= value <= hi:
            violations.append(f"{key}: {value} outside [{lo}, {hi}]")
    return violations


def _band(value: float, slack: float = 0.10) -> list[float]:
    """A ±``slack`` band around a measured value (integers widened by
    at least ±1 so counting statistics don't pin to a single value)."""
    if isinstance(value, int):
        pad = max(1, round(abs(value) * slack))
        return [value - pad, value + pad]
    pad = abs(value) * slack or slack
    return [round(value - pad, 6), round(value + pad, 6)]


def campaign_main(seeds: int, write_bands: bool, workers: int = 1,
                  cache_dir: str | None = None,
                  report_path: str | None = None,
                  journal: str | None = None) -> int:
    label = "quick" if seeds <= 10 else "full"
    print(f"fault-injection campaign: {seeds} seeds "
          f"({CAMPAIGN_DECOMP.size} ranks, {CAMPAIGN_ITERATIONS} "
          "iterations per run, identical plans under both placements)")
    summary, report = run_campaign(seeds, workers=workers,
                                   cache_dir=cache_dir, journal=journal)
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if cache_dir is not None:
        print(f"  cache: {report.cached_hits} hit(s) / {report.submitted} "
              f"job(s) ({report.cache_hit_rate:.0%}) in {cache_dir}")
    if report_path is not None:
        payload = report.to_dict()
        payload["aggregate"] = summary
        with open(report_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"  campaign report written to {report_path}")
    if write_bands:
        data = json.loads(BANDS_PATH.read_text()) if BANDS_PATH.exists() else {}
        entry = {key: _band(value) for key, value in summary.items()
                 if key != "seeds"}
        entry["seeds"] = summary["seeds"]
        data[label] = entry
        BANDS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote '{label}' bands to {BANDS_PATH.name}")
        return 0
    if not BANDS_PATH.exists():
        print(f"no {BANDS_PATH.name}; run with --write-bands to create it")
        return 1
    data = json.loads(BANDS_PATH.read_text())
    entry = data.get(label)
    if entry is None or entry.get("seeds") != seeds:
        print(f"no '{label}' band entry for {seeds} seeds; "
              "run with --write-bands")
        return 1
    bands = {k: v for k, v in entry.items() if k != "seeds"}
    violations = check_bands(summary, bands)
    if violations:
        print("campaign OUTSIDE bands:")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"campaign within '{label}' bands ({len(bands)} statistics)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--campaign", action="store_true",
                        help="run the multi-seed fault-injection campaign")
    parser.add_argument("--seeds", type=int, default=3,
                        help="campaign fault seeds (default 3; nightly CI uses 100)")
    parser.add_argument("--write-bands", action="store_true",
                        help="write BENCH_campaign.json instead of checking it")
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign worker processes (default 1; the "
                             "output is byte-identical at any count)")
    parser.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="campaign artifact cache; a rerun against a "
                             "warm cache performs zero simulations")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the campaign-service report JSON "
                             "(jobs, cache hits, aggregate) to PATH")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="write-ahead journal for the campaign "
                             "(requires --cache-dir); a killed study "
                             "resumes via "
                             "'python -m repro campaign --resume PATH'")
    args = parser.parse_args(argv)
    if args.journal and not args.cache_dir:
        parser.error("--journal requires --cache-dir")
    if args.campaign:
        return campaign_main(args.seeds, args.write_bands,
                             workers=args.workers, cache_dir=args.cache_dir,
                             report_path=args.report, journal=args.journal)
    fault_injection_study()
    degraded_fabric_study()
    checkpoint_study()
    correlated_failure_study()
    derated_sweep_study()
    placement_recovery_study()
    return 0


if __name__ == "__main__":
    sys.exit(main())
