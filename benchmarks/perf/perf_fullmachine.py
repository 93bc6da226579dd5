"""Full-machine scale: the 3,060-rank sweep through the DES.

The paper's headline results are whole-machine runs, so the simulator
has to be able to *execute* the whole machine — 3,060 ranks (60x51 KBA,
one rank per hybrid node) and a "2x Roadrunner" what-if at 6,120 —
not extrapolate to it.  This module pins that capability:

* **smoke** (tier-1 time budget, 120 ranks on the same reduced tile):
  the engine's timeout and bootstrap pools are timeline-invisible — a
  pooled run and a ``Simulator(pool_size=0)`` run produce bit-identical
  ``phi``, ``messages``, ``bytes_sent``, ``iteration_time`` and MPI
  trace; the
  streaming obs sink reproduces the unbounded recorder's summary; and
  an enabled-obs run with the sink stays inside a tracemalloc memory
  band that the unbounded recorder already violates at this scale.
* **measured**: wall-clock and logical events/s for one 3,060-rank
  iteration, tracemalloc peaks with obs disabled and with the
  streaming sink (the <= 2x memory contract), the 6,120-rank what-if,
  all written to the ``fullmachine`` section of ``BENCH_perf.json``
  with floors that fail the run if the scale capability regresses.

Wall-clock is timed without tracemalloc (tracing multiplies allocator
cost); memory is a separate traced run.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc
from typing import Any

import numpy as np

from benchmarks.framework import (
    Case,
    Ceiling,
    Floor,
    PerfTest,
    best_seconds,
    perftest,
)
from benchmarks.framework.pytest_bridge import install_pytest_tests
from repro.comm.mpi import UniformFabric
from repro.comm.transport import Transport
from repro.obs import AggregatingSink, ObsRecorder, span_stream, to_summary
from repro.sim.engine import Simulator
from repro.sweep3d import parallel
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput

#: the per-rank tile: small enough that 3,060 ranks finish in seconds,
#: deep enough in K (8 planes, mk=4) that the pipeline actually fills
INP = SweepInput(it=2, jt=2, kt=8, mk=4, mmi=2)

FULL_RANKS = 3060
DOUBLE_RANKS = 6120
SMOKE_RANKS = 120

#: BENCH_perf.json floors.  The events/s floor is pinned at 1.5x the
#: measurement before cohort batch delivery and the fused bound kernel
#: (41,388 events/s); with them the binary-heap engine measured ~70k
#: logical events/s on a 1-CPU x86_64 container (~4.9 s wall).
#: "Logical events" = engine dispatches + cohort-batched deliveries,
#: so the numerator is invariant to how many deliveries share a
#: dispatch and stays comparable with the pre-batching census.
MIN_EVENTS_PER_S = 62_082.0
MAX_WALL_S_3060 = 60.0
MAX_PEAK_MB_3060 = 64.0
MAX_OBS_PEAK_RATIO = 2.0


def _run(ranks: int, obs=None, iterations: int = 1):
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    sweep = parallel.ParallelSweep(
        INP,
        Decomposition2D.near_square(ranks),
        1e-6,
        fabric,
        obs=obs,
    )
    return sweep.run(iterations=iterations)


def _run_unpooled(ranks: int, obs=None):
    """``_run`` with the sweep layer's Simulator rebound to the
    pool-free engine — the honest unpooled baseline, same code,
    recycling disabled.  (Manual rebind/restore: the framework runs
    without pytest, so no monkeypatch fixture.)"""
    orig = parallel.Simulator
    parallel.Simulator = functools.partial(Simulator, pool_size=0)
    try:
        return _run(ranks, obs=obs)
    finally:
        parallel.Simulator = orig


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _strip_host(summary: dict) -> dict:
    """Summary minus host wall-clock (the one nondeterministic field)."""
    out = dict(summary)
    engine = dict(out["engine"])
    engine.pop("host_run_time_s", None)
    out["engine"] = engine
    return out


def _assert_summaries_agree(a: dict, b: dict) -> None:
    """Sink summary vs unbounded summary: exact for every count, equal
    to floating-point roundoff for the aggregated times (the sink
    accumulates in flush order rather than global sort order)."""
    a, b = _strip_host(a), _strip_host(b)
    assert a["span_count"] == b["span_count"]
    assert a["counters"] == b["counters"]
    assert a["gauges"] == b["gauges"]
    assert a["engine"] == b["engine"]
    assert set(a["ranks"]) == set(b["ranks"])
    for track in a["ranks"]:
        for key in a["ranks"][track]:
            assert math.isclose(
                a["ranks"][track][key],
                b["ranks"][track][key],
                rel_tol=1e-9,
                abs_tol=1e-15,
            ), (track, key)
    assert set(a["links"]) == set(b["links"])
    for name in a["links"]:
        assert a["links"][name]["transfers"] == b["links"][name]["transfers"]
        for key in ("busy_time", "utilization", "bytes"):
            assert math.isclose(
                a["links"][name][key],
                b["links"][name][key],
                rel_tol=1e-9,
                abs_tol=1e-15,
            ), (name, key)


# -- smoke tier ------------------------------------------------------------


def _check_pooled_vs_unpooled():
    """Event/timeout/envelope recycling is timeline-invisible: the
    pooled run equals the pool-free run bit for bit."""
    mpi = {"mpi.send", "mpi.recv"}
    rec_pool, rec_plain = ObsRecorder(categories=mpi), ObsRecorder(categories=mpi)
    pooled = _run(SMOKE_RANKS, obs=rec_pool)
    plain = _run_unpooled(SMOKE_RANKS, obs=rec_plain)
    assert pooled.iteration_time == plain.iteration_time
    assert pooled.messages == plain.messages
    assert pooled.bytes_sent == plain.bytes_sent
    assert np.array_equal(pooled.phi, plain.phi)
    assert len(rec_pool.spans) > 0
    assert span_stream(rec_pool) == span_stream(rec_plain)


def _check_sink_matches_unbounded():
    rec_full = ObsRecorder()
    r_full = _run(SMOKE_RANKS, obs=rec_full, iterations=2)
    rec_sink = ObsRecorder(sink=AggregatingSink(), flush_threshold=1000)
    r_sink = _run(SMOKE_RANKS, obs=rec_sink, iterations=2)
    assert r_sink.iteration_time == r_full.iteration_time
    assert rec_sink.span_count == rec_full.span_count
    assert len(rec_sink.spans) < rec_sink.span_count  # it actually flushed
    sim_time = r_full.iteration_time * r_full.iterations
    _assert_summaries_agree(
        to_summary(rec_sink, sim_time), to_summary(rec_full, sim_time)
    )


def _check_sink_deterministic():
    runs = []
    for _ in range(2):
        rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=1000)
        result = _run(SMOKE_RANKS, obs=rec)
        runs.append(
            _strip_host(to_summary(rec, result.iteration_time))
        )
    assert runs[0] == runs[1]


def _check_sink_memory_ceiling():
    """The tracemalloc band for the nightly job: with the streaming
    sink an enabled recorder must stay well under the unbounded
    recorder and inside an absolute ceiling the unbounded path is
    already on course to blow."""
    peak_disabled = _traced_peak(lambda: _run(SMOKE_RANKS, iterations=2))
    peak_sink = _traced_peak(
        lambda: _run(
            SMOKE_RANKS,
            obs=ObsRecorder(sink=AggregatingSink(), flush_threshold=1000),
            iterations=2,
        )
    )
    peak_full = _traced_peak(
        lambda: _run(SMOKE_RANKS, obs=ObsRecorder(), iterations=2)
    )
    assert peak_sink < peak_full / 2
    # 2x the disabled peak plus the flush buffer's constant overhead.
    assert peak_sink < 2 * peak_disabled + 3_000_000
    assert peak_sink < 8_000_000


@perftest
class FullMachineSmoke(PerfTest):
    """Smoke tier: pooling, streaming sink, and memory at 120 ranks."""

    name = "fullmachine_smoke"
    title = "fullmachine: pooled/sink identity and memory at 120 ranks"
    tiers = ("smoke",)
    params = {
        "check": [
            "pooled_vs_unpooled",
            "sink_matches_unbounded",
            "sink_deterministic",
            "memory_ceiling",
        ]
    }

    _CHECKS = {
        "pooled_vs_unpooled": _check_pooled_vs_unpooled,
        "sink_matches_unbounded": _check_sink_matches_unbounded,
        "sink_deterministic": _check_sink_deterministic,
        "memory_ceiling": _check_sink_memory_ceiling,
    }

    def sanity(self, case: Case):
        self._CHECKS[case.check]()
        return None


# -- measured tier ---------------------------------------------------------


def _logical_events(ranks: int) -> tuple[dict, Any]:
    """Deterministic event census: engine dispatches plus
    cohort-batched deliveries (deliveries that shared another message's
    dispatch), so the count is invariant to batching and comparable
    with the pre-batching pinned census."""
    rec = ObsRecorder(sink=AggregatingSink())
    result = _run(ranks, obs=rec)
    dispatched = sum(rec.events_by_class.values())
    counters = to_summary(rec, result.iteration_time)["counters"]
    batched = int(counters.get("mpi.batched_deliveries", {"total": 0})["total"])
    return (
        {
            "dispatched": dispatched,
            "batched_deliveries": batched,
            "logical": dispatched + batched,
            "spans": rec.span_count,
            "messages": result.messages,
        },
        result,
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@perftest
class FullMachineMeasured(PerfTest):
    """Measured tier: the 3,060-rank capability floors."""

    name = "fullmachine"
    title = "fullmachine: 3,060-rank wall/throughput/memory floors"
    tiers = ("measured",)
    section = "fullmachine"
    references = {
        "events_per_s": Floor(MIN_EVENTS_PER_S),
        "wall_s_3060": Ceiling(MAX_WALL_S_3060),
        "peak_mb_3060": Ceiling(MAX_PEAK_MB_3060),
        "obs_peak_ratio": Ceiling(MAX_OBS_PEAK_RATIO),
    }

    def measure(self, case: Case):
        # Wall-clock, untraced: best-of-5 (five samples because the
        # floor sits ~15% under the quiet-machine rate and shared-runner
        # noise windows routinely last a repeat or two).
        wall_3060 = best_seconds(lambda: _run(FULL_RANKS), repeats=5)
        # An obs-sink run gives the deterministic census.
        census, _result = _logical_events(FULL_RANKS)
        events = census["logical"]
        # Memory, traced separately: disabled vs streaming-sink recorder.
        peak_disabled = _traced_peak(lambda: _run(FULL_RANKS))
        peak_sink = _traced_peak(
            lambda: _run(FULL_RANKS, obs=ObsRecorder(sink=AggregatingSink()))
        )
        wall_6120 = _timed(lambda: _run(DOUBLE_RANKS))
        return {
            "events": events,
            "events_dispatched": census["dispatched"],
            "events_batched_deliveries": census["batched_deliveries"],
            "spans": census["spans"],
            "messages": census["messages"],
            "wall_s_3060": round(wall_3060, 3),
            "events_per_s": round(events / wall_3060),
            "peak_mb_3060": round(peak_disabled / 1e6, 1),
            "peak_mb_3060_obs_sink": round(peak_sink / 1e6, 1),
            "obs_peak_ratio": round(peak_sink / peak_disabled, 2),
            "wall_s_6120_whatif": round(wall_6120, 3),
        }

    def publish(self, metrics):
        return {
            "config": (
                f"{FULL_RANKS} ranks (60x51 KBA), per-rank tile "
                "it=jt=2 kt=8 mk=4 mmi=2, 1 iteration"
            ),
            "min_events_per_s": MIN_EVENTS_PER_S,
            "max_wall_s_3060": MAX_WALL_S_3060,
            "max_peak_mb_3060": MAX_PEAK_MB_3060,
            "max_obs_peak_ratio": MAX_OBS_PEAK_RATIO,
            **dict(metrics["default"]),
        }


install_pytest_tests(globals())
