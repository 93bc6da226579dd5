"""The four benchmark workloads.

Each workload is built from ``--seed`` alone (construction is the
measured set-up), runs one *op* per call, and checks the op's outputs
after the op's timer has stopped.  Workloads drive only ``repro``'s
public API.

``op(counting=True)`` is the warm-up: the same op with an
event-counting recorder attached, which yields the deterministic census
(engine dispatches plus cohort-batched deliveries, the "logical events"
of the full-machine perf test) without instrumenting the timed ops.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from typing import Any

import numpy as np

__all__ = ["WORKLOADS", "Outcome"]

#: ``ParallelSweep`` fabric of the Sweep3D workloads: IB, 2 us, 2 GB/s
_IB_LATENCY = 2e-6
_IB_BANDWIDTH = 2e9
_GRIND = 1e-6


@dataclasses.dataclass
class Outcome:
    """What one op produced, reduced to what the benchmark compares."""

    #: SHA-256 over the op's deterministic outputs (equal across ops)
    digest: str
    #: failed checks, empty when the op is correct
    failures: list[str]
    #: logical-event census: dispatches, batched, messages, bytes, spans
    census: dict[str, float] | None = None
    #: per-op numbers beside the op time (e.g. the campaign's phases)
    extra: dict[str, float] = dataclasses.field(default_factory=dict)


def _sha(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _recorder_census(rec, messages: int, nbytes: int) -> dict[str, float]:
    return {
        "dispatches": float(sum(rec.events_by_class.values())),
        "batched": float(rec.counter_total("mpi.batched_deliveries")),
        "messages": float(messages),
        "bytes": float(nbytes),
        "spans": float(rec.span_count),
    }


def _counting_recorder():
    from repro.obs import ObsRecorder

    # Counters and engine event classes only: no span is built or kept.
    return ObsRecorder(categories=())


def _max_rel_err(phi: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(phi - ref) / np.abs(ref)))


class _Workload:
    """Defaults shared by the workloads."""

    #: max relative flux error against the sequential reference
    flux_err = 0.0

    def final_check(self) -> list[str]:
        """Checks made once per run, after the timed ops."""
        return []

    def close(self) -> None:
        """Release what set-up created."""


class Fullmachine(_Workload):
    """The paper's full machine: 3,060 ranks (60x51 KBA), one computed
    and one replayed iteration of the reduced per-rank tile."""

    name = "fullmachine"

    #: the model's simulated outputs at 3,060 ranks; a perf change must
    #: not move them (they do not depend on the seed)
    PINNED = {"iteration_time": 0.008951000000000072, "messages": 192288,
              "bytes_sent": 24612864}

    def __init__(self, seed: int, quick: bool, workdir: str):
        from repro.comm.mpi import UniformFabric
        from repro.comm.transport import Transport
        from repro.sweep3d import Decomposition2D, ParallelSweep, SweepInput

        self.quick = quick
        self.ranks = 120 if quick else 3060
        self.inp = SweepInput(it=2, jt=2, kt=8, mk=4, mmi=2)
        self.decomp = Decomposition2D.near_square(self.ranks)
        self.fabric = UniformFabric(
            Transport("ib", latency=_IB_LATENCY, bandwidth=_IB_BANDWIDTH))
        rng = np.random.default_rng(seed)
        self.source = rng.uniform(0.5, 1.5, (self.inp.it, self.inp.jt, self.inp.kt))
        self._make = lambda obs=None: ParallelSweep(
            self.inp, self.decomp, _GRIND, self.fabric, obs=obs)
        self.sweep = self._make()
        self._reference = None
        self.flux_err = 0.0

    @property
    def params(self) -> dict[str, Any]:
        return {"ranks": self.ranks, "tile": dataclasses.asdict(self.inp),
                "iterations": 2, "replay": True, "grind_s": _GRIND,
                "fabric": "uniform IB 2 us, 2 GB/s",
                "source": "uniform(0.5, 1.5) per cell, seeded"}

    def inputs_digest(self) -> str:
        return _sha(self.source.tobytes())

    def op(self, counting: bool = False):
        rec = _counting_recorder() if counting else None
        sweep = self.sweep if rec is None else self._make(rec)
        return sweep.run(source=self.source, iterations=2), rec

    def reference(self) -> np.ndarray:
        """The sequential sweep of the assembled global problem."""
        if self._reference is None:
            from repro.sweep3d import make_angle_set
            from repro.sweep3d.solver import sweep_all_octants

            d, inp = self.decomp, self.inp
            global_inp = inp.with_subgrid(inp.it * d.npe_i, inp.jt * d.npe_j, inp.kt)
            source = np.tile(self.source, (d.npe_i, d.npe_j, 1))
            self._reference, _, _ = sweep_all_octants(
                global_inp, source, make_angle_set(inp.mmi))
        return self._reference

    def evaluate(self, raw) -> Outcome:
        result, rec = raw
        failures = []
        ref = self.reference()
        if not np.allclose(result.phi, ref, rtol=1e-12, atol=1e-13):
            failures.append("phi differs from the sequential reference")
        self.flux_err = max(self.flux_err, _max_rel_err(result.phi, ref))
        if not self.quick:
            got = {"iteration_time": result.iteration_time,
                   "messages": result.messages, "bytes_sent": result.bytes_sent}
            if got != self.PINNED:
                failures.append(f"timeline {got} != pinned {self.PINNED}")
        census = None
        if rec is not None:
            census = _recorder_census(rec, result.messages, result.bytes_sent)
        return Outcome(
            _sha(result.phi.tobytes(), result.iteration_time, result.messages,
                 result.bytes_sent),
            failures, census)


class Solve(_Workload):
    """The paper's Fig 13 per-rank tile (5x5x400, MK=20, 6 angles) on a
    2x2 array, source-iterated to epsi 1e-6.  The input is fixed: the
    seed does not change it."""

    name = "solve"

    def __init__(self, seed: int, quick: bool, workdir: str):
        from repro.comm.mpi import UniformFabric
        from repro.comm.transport import Transport
        from repro.sweep3d import Decomposition2D, ParallelSweep, SweepInput

        self.quick = quick
        if quick:
            self.inp = SweepInput(it=3, jt=3, kt=20, mk=5, mmi=2)
            self.iterations = 19
        else:
            self.inp = SweepInput(it=5, jt=5, kt=400, mk=20, mmi=6)
            self.iterations = 20
        self.decomp = Decomposition2D(2, 2)
        fabric = UniformFabric(
            Transport("ib", latency=_IB_LATENCY, bandwidth=_IB_BANDWIDTH))
        self._make = lambda obs=None: ParallelSweep(
            self.inp, self.decomp, _GRIND, fabric, obs=obs)
        self.sweep = self._make()
        self._phi = None
        self.flux_err = 0.0

    @property
    def params(self) -> dict[str, Any]:
        return {"decomposition": [2, 2], "tile": dataclasses.asdict(self.inp),
                "expected_iterations": self.iterations, "grind_s": _GRIND,
                "fabric": "uniform IB 2 us, 2 GB/s", "seeded": False}

    def inputs_digest(self) -> str:
        return _sha(dataclasses.astuple(self.inp))

    def op(self, counting: bool = False):
        rec = _counting_recorder() if counting else None
        sweep = self.sweep if rec is None else self._make(rec)
        return sweep.solve_distributed(), rec

    def evaluate(self, raw) -> Outcome:
        (result, info), rec = raw
        failures = []
        if not info["converged"] or info["iterations"] != self.iterations:
            failures.append(f"solve stopped after {info['iterations']} "
                            f"iterations (converged={info['converged']}), "
                            f"expected {self.iterations}")
        if self._phi is None:
            self._phi = result.phi
        elif not np.array_equal(result.phi, self._phi):
            failures.append("phi differs bitwise from the first op")
        census = None
        if rec is not None:
            census = _recorder_census(rec, result.messages, result.bytes_sent)
        return Outcome(
            _sha(result.phi.tobytes(), info["iterations"],
                 result.iteration_time, result.messages),
            failures, census, {"iterations": float(info["iterations"])})

    def final_check(self) -> list[str]:
        """One comparison with the sequential solver on the global grid."""
        from repro.sweep3d import solve

        if self._phi is None:
            return ["no solve completed"]
        global_inp = dataclasses.replace(
            self.inp, it=self.inp.it * 2, jt=self.inp.jt * 2)
        seq = solve(global_inp)
        self.flux_err = _max_rel_err(self._phi, seq.phi)
        if seq.iterations != self.iterations:
            return [f"sequential solve took {seq.iterations} iterations"]
        if not np.allclose(self._phi, seq.phi, rtol=1e-11, atol=0.0):
            return [f"phi differs from the sequential solve ({self.flux_err:.3g})"]
        return []


#: message sizes of the contended exchange
_KIB = 1024
CONTENDED_SIZES = (8 * _KIB, 64 * _KIB, 1024 * _KIB)


class Contended(_Workload):
    """Seeded random-permutation exchanges over the whole fabric with the
    2:1 CU uplink taper modelled and a streaming recorder attached."""

    name = "contended"

    def __init__(self, seed: int, quick: bool, workdir: str):
        from repro.comm.mpi import Location
        from repro.network.topology import RoadrunnerTopology

        self.cu_count = 2 if quick else 17
        self.rounds = 2 if quick else 4
        self.topology = RoadrunnerTopology(cu_count=self.cu_count)
        n = self.topology.node_count
        rng = np.random.default_rng(seed)
        dests = np.empty((n, self.rounds), dtype=np.int64)
        srcs = np.empty_like(dests)
        for r in range(self.rounds):
            dests[:, r] = rng.permutation(n)
            srcs[dests[:, r], r] = np.arange(n)
        # A size per message, not per round: every seed then moves the
        # same mix of sizes, so host time does not hinge on the draw.
        sizes = np.asarray(CONTENDED_SIZES)[rng.integers(0, 3, (n, self.rounds))]
        #: per rank, per round: (destination, source, size)
        self.plan = [tuple(zip(*row)) for row in
                     zip(dests.tolist(), srcs.tolist(), sizes.tolist())]
        self.locations = [Location(node=i) for i in range(n)]
        self._finish = None

    @property
    def params(self) -> dict[str, Any]:
        return {"nodes": self.topology.node_count, "cu_count": self.cu_count,
                "rounds": self.rounds, "sizes": list(CONTENDED_SIZES),
                "model_uplinks": True, "recorder": "AggregatingSink"}

    def inputs_digest(self) -> str:
        return _sha(self.plan)

    def op(self, counting: bool = False):
        from repro.comm.mpi import SimMPI
        from repro.network.simfabric import ContendedFabric
        from repro.obs import AggregatingSink, ObsRecorder, deterministic_summary
        from repro.sim.engine import Simulator

        obs = ObsRecorder(sink=AggregatingSink())
        sim = Simulator()
        sim.attach_observer(obs)
        fabric = ContendedFabric(sim, topology=self.topology,
                                 model_uplinks=True, obs=obs)
        comm = SimMPI(sim, fabric, self.locations, obs=obs)
        received = [0]

        def exchange(rank, plan):
            for tag, (dest, source, size) in enumerate(plan):
                yield from rank.send(dest, size, tag=tag)
                yield from rank.recv(source=source, tag=tag)
                received[0] += 1

        for i, plan in enumerate(self.plan):
            sim.process(exchange(comm.rank(i), plan), name=f"exchange-{i}")
        sim.run()
        summary = deterministic_summary(obs, sim.now)
        return sim.now, comm, fabric, obs, received[0], summary

    def evaluate(self, raw) -> Outcome:
        finish, comm, fabric, obs, received, summary = raw
        failures = []
        sent = sum(comm.sent_counts)
        expected = self.rounds * self.topology.node_count
        if not sent == received == expected:
            failures.append(f"sent {sent}, received {received}, expected {expected}")
        busiest = max(max(fabric.nic_bytes(node)) for node in range(len(self.locations)))
        lower_bound = busiest / fabric.latency.bandwidth
        if finish < lower_bound:
            failures.append(f"finish {finish!r} s below the NIC bound {lower_bound!r} s")
        if self._finish is None:
            self._finish = finish
        elif finish != self._finish:
            failures.append(f"finish {finish!r} differs from the first op's {self._finish!r}")
        nbytes = sum(comm.sent_bytes)
        return Outcome(
            _sha(finish, sent, nbytes, json.dumps(summary, sort_keys=True)),
            failures, _recorder_census(obs, sent, nbytes))


class Campaign(_Workload):
    """One journaled cold campaign of small lossy sweeps into an empty
    store, then warm re-runs of the same specs against the filled store."""

    name = "campaign"

    WORKERS = 2
    SAMPLED = 4

    def __init__(self, seed: int, quick: bool, workdir: str):
        from repro.campaign import grid

        self.jobs = 16 if quick else 256
        self.warm_runs = 1 if quick else 4
        rng = np.random.default_rng(seed)
        seeds = rng.choice(2**31 - 1, size=self.jobs, replace=False).tolist()
        config = {"drop_probability": 0.05}
        self.specs = grid("sweep", seeds, config)
        self.counting_specs = grid("sweep", seeds, {**config, "observe": True})
        self.sampled = sorted(rng.choice(self.jobs, size=self.SAMPLED,
                                         replace=False).tolist())
        # A killed run never reaches close(): drop what it left, so the
        # cold run starts from an empty store.
        shutil.rmtree(workdir, ignore_errors=True)
        self.workdir = workdir
        self._ops = 0
        self._shas = None
        self._artifacts: dict[int, dict] = {}

    @property
    def params(self) -> dict[str, Any]:
        return {"scenario": "sweep", "jobs": self.jobs,
                "drop_probability": 0.05, "workers": self.WORKERS,
                "warm_runs": self.warm_runs, "journal_fsync": "terminal"}

    def inputs_digest(self) -> str:
        return _sha([s.digest for s in self.specs], self.sampled)

    def op(self, counting: bool = False):
        from repro.campaign import ArtifactStore, CampaignService

        specs = self.counting_specs if counting else self.specs
        self._ops += 1
        # A fresh directory per op; all are deleted at close, so no
        # unlinking overlaps the ops or the calibration loop.
        opdir = os.path.join(self.workdir, f"op{self._ops}")
        store_dir = os.path.join(opdir, "store")
        times: dict[str, dict[int, float]] = {}

        def progress(event) -> None:
            times.setdefault(event.event, {})[event.index] = time.perf_counter()

        t0 = time.perf_counter()
        cold = CampaignService(ArtifactStore(store_dir), workers=self.WORKERS).run(
            specs, progress, journal=os.path.join(opdir, "journal.jsonl"))
        cold_s = time.perf_counter() - t0
        warm, warm_s = [], []
        for _ in range(self.warm_runs):
            t0 = time.perf_counter()
            warm.append(CampaignService(ArtifactStore(store_dir),
                                        workers=self.WORKERS).run(specs))
            warm_s.append(time.perf_counter() - t0)
        return cold, warm, cold_s, warm_s, times, counting

    def evaluate(self, raw) -> Outcome:
        cold, warm, cold_s, warm_s, times, counting = raw
        failures = []
        if cold.failed or cold.executed != self.jobs or cold.cached_hits:
            failures.append(f"cold run: {cold.executed} executed, {cold.failed} "
                            f"failed, {cold.cached_hits} cached of {self.jobs}")
        shas = [o.artifact_sha256 for o in cold.outcomes]
        for report in warm:
            if report.cache_hit_rate != 1.0:
                failures.append(f"warm hit rate {report.cache_hit_rate}")
            if [o.artifact_sha256 for o in report.outcomes] != shas:
                failures.append("warm artifacts differ from the cold run's")
        census = None
        if counting:
            census = {"dispatches": 0.0, "batched": 0.0, "messages": 0.0,
                      "bytes": 0.0, "spans": 0.0}
            for o in cold.outcomes:
                summary = o.artifact["obs"]
                census["dispatches"] += sum(summary["engine"]["events_by_class"].values())
                census["batched"] += summary["counters"].get(
                    "mpi.batched_deliveries", {"total": 0.0})["total"]
                census["messages"] += o.artifact["messages"]
                census["bytes"] += o.artifact["bytes"]
        elif self._shas is None:
            self._shas = shas
            self._artifacts = {i: cold.outcomes[i].artifact for i in self.sampled}
        elif shas != self._shas:
            failures.append("cold artifacts differ from the first op's")
        stores = [cold.store_stats] + [r.store_stats for r in warm]
        hits = sum(s["hits"] for s in stores)
        gets = hits + sum(s["misses"] for s in stores)
        # Progress events carry no clock, so job times are when the
        # benchmark's callback saw them; "finished" events are released
        # in submission order, so exec time includes that reordering.
        queued, started, finished = (
            times.get(k, {}) for k in ("queued", "started", "finished"))
        done = len(finished) or 1
        extra = {
            "cold_s": cold_s, "warm_s": float(np.median(warm_s)),
            "store_hits": float(hits), "store_gets": float(gets),
            "job_wait_s": sum(started[i] - queued[i] for i in finished) / done,
            "job_exec_s": sum(finished[i] - started[i] for i in finished) / done,
        }
        return Outcome(_sha(shas), failures, census, extra)

    def final_check(self) -> list[str]:
        """Sampled artifacts equal a direct, pool-free execution."""
        from repro.campaign import content_digest, run_job

        if self._shas is None:
            return ["no campaign completed"]
        return [
            f"job {i}: cached artifact differs from run_job"
            for i in self.sampled
            if content_digest(run_job(self.specs[i])) != content_digest(self._artifacts[i])
        ]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


#: name -> workload class, in report order
WORKLOADS = {cls.name: cls for cls in (Fullmachine, Solve, Contended, Campaign)}
