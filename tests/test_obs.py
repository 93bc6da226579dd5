"""Tests for the observability subsystem (repro.obs).

Covers the recorder primitives (spans, instant events, counters), the
recording bit-identity contract, span-stream determinism, the
acceptance criteria (16-rank attribution closure within 1e-9; Chrome
trace schema), and the ``python -m repro profile`` command.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.comm.mpi import Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    ObsRecorder,
    SpanRecord,
    format_profile,
    link_occupancy,
    phase_fractions,
    profile,
    run_scenario,
    self_times,
    span_stream,
    to_chrome_trace,
    to_summary,
    write_chrome_trace,
)
from repro.sim.engine import Simulator
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep


def _sweep(npe_i=2, npe_j=2, obs=None, **kw):
    inp = SweepInput(it=2, jt=2, kt=8, mk=2, mmi=2)
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    return ParallelSweep(
        inp, Decomposition2D(npe_i, npe_j), 1e-6, fabric, obs=obs, **kw
    )


# -- recorder primitives -----------------------------------------------------

def test_span_record_rejects_negative_duration():
    with pytest.raises(ValueError, match="ends before it starts"):
        SpanRecord("x", 0, 2.0, 1.0)


def test_recorder_counters_and_gauges():
    rec = ObsRecorder()
    rec.count("msgs", track=0)
    rec.count("msgs", track=0)
    rec.count("msgs", track=1)
    rec.count("global")
    rec.gauge("depth", 3.0, track=0)
    rec.gauge("depth", 5.0, track=0)  # last write wins
    assert rec.counter_total("msgs") == 3.0
    assert rec.counter_by_track("msgs") == {0: 2.0, 1: 1.0}
    assert rec.counter_total("global") == 1.0
    assert rec.gauges[("depth", 0)] == 5.0


def test_recorder_category_filter():
    rec = ObsRecorder(categories=frozenset({"keep"}))
    rec.span("keep", 0, 0.0, 1.0)
    rec.span("drop", 0, 0.0, 1.0)
    assert [s.category for s in rec.spans] == ["keep"]
    rec.count("always", track=0)  # counters ignore the filter
    assert rec.counter_total("always") == 1.0


def test_empty_categories_skips_span_retention_entirely():
    """``categories=()`` is the counter-only mode: no span is ever
    retained (flat memory), while counters and gauges still record."""
    rec = ObsRecorder(categories=frozenset())
    rec.span("any", 0, 0.0, 1.0)
    assert rec.spans == []
    assert rec.span_count == 0
    rec.count("msgs", track=0)
    rec.gauge("depth", 2.0, track=0)
    assert rec.counter_total("msgs") == 1.0
    assert rec.gauges[("depth", 0)] == 2.0


def test_events_are_instants_kept_apart_from_spans():
    """An event is a zero-length SpanRecord in ``rec.events``; the
    category filter applies, and the profile, summary and span stream
    never see it (a fault's track is a node id, not a rank)."""
    rec = ObsRecorder(categories=frozenset({"keep", "fault"}))
    rec.span("keep", 0, 0.0, 1.0)
    rec.event("fault", 17, 0.5, kind="node", action="fail")
    rec.event("drop", 0, 0.5)
    assert rec.events == [
        SpanRecord("fault", 17, 0.5, 0.5, (("kind", "node"), ("action", "fail")))
    ]
    assert [s.category for s in rec.spans] == ["keep"]
    assert list(profile(rec, 1.0).ranks) == [0]
    summary = to_summary(rec, 1.0)
    assert summary["span_count"] == 1 and list(summary["ranks"]) == ["0"]
    assert [s["category"] for s in span_stream(rec)] == ["keep"]


# -- streaming sinks ---------------------------------------------------------


def test_sink_flushes_past_threshold_and_keeps_the_census():
    from repro.obs import AggregatingSink

    rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=4)
    for i in range(10):
        rec.span("phase", 0, float(i), float(i) + 0.5)
    assert len(rec.spans) < 10  # buffer was handed to the sink
    assert rec.span_count == 10
    rec.flush()
    assert rec.spans == []
    assert rec.span_count == 10


def test_sink_profile_matches_unbounded_recorder():
    """The aggregated profile equals the unbounded recorder's on a real
    scenario."""
    from repro.obs import AggregatingSink

    rec_full, sim_time = run_scenario("sweep4")
    sink = AggregatingSink()
    rec_sink, sim_time_s = run_scenario(
        "sweep4", ObsRecorder(sink=sink, flush_threshold=50)
    )
    assert sim_time == sim_time_s
    ref = profile(rec_full, sim_time)
    agg = profile(rec_sink, sim_time)
    assert set(agg.ranks) == set(ref.ranks)
    for track, rp in ref.ranks.items():
        got = agg.ranks[track]
        for phase, value in rp.phases.items():
            assert got.phases[phase] == pytest.approx(value, rel=1e-9, abs=1e-15)
        assert got.other == pytest.approx(rp.other, rel=1e-9, abs=1e-15)
        assert got.idle == pytest.approx(rp.idle, rel=1e-9, abs=1e-15)
    assert set(agg.links) == set(ref.links)
    for name, lp in ref.links.items():
        assert agg.links[name].transfers == lp.transfers
        assert agg.links[name].busy_time == pytest.approx(
            lp.busy_time, rel=1e-9, abs=1e-15
        )


# -- profiler ----------------------------------------------------------------

def test_self_times_innermost_wins():
    outer = SpanRecord("outer", 0, 0.0, 10.0)
    inner = SpanRecord("inner", 0, 2.0, 5.0)
    leaf = SpanRecord("leaf", 0, 3.0, 4.0)
    attributed = dict(
        (s.category, t) for s, t in self_times([outer, inner, leaf])
    )
    assert attributed == {"leaf": 1.0, "inner": 2.0, "outer": 7.0}


def test_self_times_rejects_partial_overlap():
    a = SpanRecord("a", 0, 0.0, 2.0)
    b = SpanRecord("b", 0, 1.0, 3.0)
    with pytest.raises(ValueError, match="overlap without nesting"):
        self_times([a, b])


def test_profile_of_empty_recorder():
    prof = profile(ObsRecorder(), 1.0)
    assert prof.ranks == {} and prof.links == {}
    with pytest.raises(ValueError):
        profile(ObsRecorder(), -1.0)


# -- recording never perturbs the run ---------------------------------------

def test_enabled_recording_does_not_perturb():
    r_plain = _sweep().run(iterations=2)
    rec = ObsRecorder()
    r_obs = _sweep(obs=rec).run(iterations=2)
    assert r_obs.iteration_time == r_plain.iteration_time
    assert r_obs.messages == r_plain.messages
    assert np.array_equal(r_obs.phi, r_plain.phi)
    assert rec.counter_total("mpi.messages") == r_plain.messages
    assert rec.counter_total("mpi.bytes") == r_plain.bytes_sent


def test_span_stream_is_deterministic():
    rec1, rec2 = ObsRecorder(), ObsRecorder()
    _sweep(obs=rec1).run(iterations=2)
    _sweep(obs=rec2).run(iterations=2)
    assert span_stream(rec1) == span_stream(rec2)


# -- acceptance criteria -----------------------------------------------------

def test_16_rank_attribution_sums_to_total_sim_time():
    """Per-rank phases + other + idle == total simulated time, within
    1e-9 relative, for a 16-rank sweep."""
    rec, sim_time = run_scenario("sweep16")
    prof = profile(rec, sim_time)
    assert len(prof.ranks) == 16
    for rank_profile in prof.ranks.values():
        assert rank_profile.attribution_sum() == pytest.approx(
            sim_time, rel=1e-9, abs=1e-12
        )
        assert rank_profile.phases["compute"] > 0
        assert rank_profile.idle >= 0


def test_chrome_trace_schema(tmp_path):
    rec, _sim_time = run_scenario("sweep4")
    trace = to_chrome_trace(rec)
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"X", "M"}
    for e in events:
        assert {"ph", "pid", "tid", "name", "args"} <= set(e)
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert e["pid"] in (1, 2)
    # Metadata names every process and thread exactly once.
    meta = [e for e in events if e["ph"] == "M"]
    assert sum(e["name"] == "process_name" for e in meta) == 2
    tids = {(e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"}
    assert {(e["pid"], e["tid"]) for e in events if e["ph"] == "X"} <= tids
    # And it round-trips through JSON.
    path = tmp_path / "trace.json"
    write_chrome_trace(rec, path)
    assert json.loads(path.read_text())["traceEvents"]


def test_write_chrome_trace_bytes_equal_the_dumped_dict(tmp_path):
    rec, _sim_time = run_scenario("sweep4")
    path = tmp_path / "trace.json"
    write_chrome_trace(rec, path)
    assert path.read_text() == json.dumps(to_chrome_trace(rec))


def test_write_chrome_trace_streams_its_events(tmp_path):
    """The writer encodes one event at a time: its peak allocation does
    not grow with the span count (about 2.3 MB if it built the event
    list for sweep16's spans first)."""
    rec, _sim_time = run_scenario("sweep16")
    assert len(rec.spans) > 4000
    tracemalloc.start()
    try:
        write_chrome_trace(rec, tmp_path / "trace.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_link_occupancy_from_contended_scenario():
    rec, sim_time = run_scenario("ring8")
    links = link_occupancy(rec, sim_time)
    assert len(links) == 16  # 8 tx + 8 rx HCA ports
    for lp in links.values():
        assert 0 < lp.busy_time <= sim_time
        assert 0 < lp.utilization <= 1
        assert lp.bytes == 1_000_000.0


def test_chrome_trace_exports_events_as_instants():
    rec = ObsRecorder()
    rec.span("mpi.send", 3, 1e-6, 2e-6, dest=4)
    rec.event("mpi.retry", 3, 2e-6, attempt=1)
    rec.event("fault", 3, 5e-6, kind="node", action="fail")
    events = to_chrome_trace(rec)["traceEvents"]
    retry, fault = [e for e in events if e["ph"] == "i"]
    (send,) = [e for e in events if e["ph"] == "X"]
    assert retry["name"] == retry["cat"] == "mpi.retry"
    assert retry["ts"] == pytest.approx(2.0)
    assert retry["args"] == {"attempt": 1}
    # a rank's event sits on the rank's thread; node 3's fault does not
    assert (retry["pid"], retry["tid"]) == (send["pid"], send["tid"])
    assert fault["pid"] == 1 and fault["tid"] != send["tid"]
    names = {e["tid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1}
    assert names[fault["tid"]] == "fault 3"


def test_engine_observer_counts_events():
    rec, _sim_time = run_scenario("sweep4")
    assert rec.events_by_class.get("Timeout", 0) > 0
    assert rec.events_by_class.get("Bootstrap", 0) == 4
    assert set(rec.resumes_by_process) >= {f"sweep-rank{r}" for r in range(4)}
    assert rec.host_run_time > 0


def test_collective_spans_from_solve():
    rec, _sim_time = run_scenario("solve4")
    coll = [s for s in rec.spans if s.category == "mpi.collective"]
    assert coll
    assert {dict(s.attrs)["op"] for s in coll} == {"allreduce"}


def test_summary_is_json_serializable():
    rec, sim_time = run_scenario("sweep4")
    summary = json.loads(json.dumps(to_summary(rec, sim_time)))
    assert summary["span_count"] == len(rec.spans)
    assert set(summary["ranks"]) == {"0", "1", "2", "3"}
    assert summary["counters"]["mpi.messages"]["total"] > 0


def _summary_for(npe_i, npe_j, mk, blocks, iterations, latency_ns):
    """One observed sweep run -> its ``deterministic_summary`` dict
    (``to_summary`` minus host wall-clock, the one nondeterministic
    field)."""
    from repro.obs.export import deterministic_summary

    rec = ObsRecorder()
    inp = SweepInput(it=2, jt=2, kt=mk * blocks, mk=mk, mmi=2)
    fabric = UniformFabric(
        Transport("ib", latency=latency_ns * 1e-9, bandwidth=2e9)
    )
    sweep = ParallelSweep(
        inp, Decomposition2D(npe_i, npe_j), 1e-6, fabric, obs=rec
    )
    result = sweep.run(iterations=iterations)
    return deterministic_summary(
        rec, result.iteration_time * result.iterations
    )


@settings(max_examples=15, deadline=None)
@given(
    npe_i=st.integers(1, 3),
    npe_j=st.integers(1, 3),
    mk=st.sampled_from([1, 2]),
    blocks=st.integers(1, 4),
    iterations=st.integers(1, 3),
    latency_ns=st.integers(100, 5000),
)
def test_summary_phase_fractions_sum_to_one_and_are_stable(
    npe_i, npe_j, mk, blocks, iterations, latency_ns
):
    """Property: for any sweep configuration, every rank's phase
    fractions partition its wall time (sum to 1 within 1e-9), and the
    whole summary is bitwise-stable across repeated runs of the same
    configuration (the determinism contract ``phase_fractions`` and the
    profile-shape perf gates rely on)."""
    summary = _summary_for(npe_i, npe_j, mk, blocks, iterations, latency_ns)
    fractions = phase_fractions(summary)
    assert set(fractions) == set(summary["ranks"])
    for track, fracs in fractions.items():
        total = sum(fracs.values())
        assert abs(total - 1.0) <= 1e-9, (track, total)
        # idle is total-minus-accounted, so it may carry a -epsilon
        assert all(f >= -1e-12 for f in fracs.values()), (track, fracs)

    rerun = _summary_for(npe_i, npe_j, mk, blocks, iterations, latency_ns)
    assert json.dumps(rerun, sort_keys=True) == json.dumps(
        summary, sort_keys=True
    )
    # bitwise, not approximately: the fractions are floats derived from
    # identical span streams, so they must compare equal exactly
    assert phase_fractions(rerun) == fractions


def test_simulator_attach_detach_observer():
    sim = Simulator()
    rec = ObsRecorder()
    sim.attach_observer(rec)
    assert sim.observer is rec
    sim.attach_observer(None)  # None detaches
    assert sim.observer is None


def test_observed_engine_matches_fast_loop_timeline():
    """The observed loop and the fast loop produce the same clock."""

    def body(sim, log):
        for _ in range(5):
            yield sim.timeout(1.5)
            log.append(sim.now)

    plain_log: list = []
    sim = Simulator()
    sim.process(body(sim, plain_log))
    sim.run()
    t_plain = sim.now

    obs_log: list = []
    sim2 = Simulator()
    sim2.attach_observer(ObsRecorder())
    sim2.process(body(sim2, obs_log))
    sim2.run()
    assert obs_log == plain_log
    assert sim2.now == t_plain


def test_observed_bounded_run_consumes_identical_seq():
    """run(until=t) consumes one seq for its sentinel on both loops, so
    a mixed observed/fast schedule stays aligned."""
    for attach in (False, True):
        sim = Simulator()
        if attach:
            sim.attach_observer(ObsRecorder())
        sim.timeout(1.0)
        sim.run(until=5.0)
        assert sim.now == 5.0
        sim.timeout(2.0)
        sim.run()
        assert sim.now == 7.0


def test_recv_timeout_counted():
    from repro.comm.mpi import DeliveryError

    sim = Simulator()
    rec = ObsRecorder()
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    comm = SimMPI(sim, fabric, [Location(node=0), Location(node=1)], obs=rec)

    def waiter(rank):
        with pytest.raises(DeliveryError):
            yield from rank.recv(source=1, timeout=1e-3)

    sim.process(waiter(comm.rank(0)))
    sim.run()
    assert rec.counter_total("mpi.recv_timeouts") == 1.0


# -- the profile CLI ---------------------------------------------------------

def test_profile_cli_text(capsys, tmp_path):
    from repro.cli import main

    trace_path = tmp_path / "t.json"
    assert main(["profile", "sweep4", "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "per-rank sim-time attribution" in out
    assert "compute" in out and "recv-wait" in out
    assert json.loads(trace_path.read_text())["traceEvents"]


def test_profile_cli_trace_keeps_every_span(monkeypatch, tmp_path):
    """``--trace`` writes one complete event per recorded span, also for
    the scenarios that stream into an AggregatingSink by default (which
    drops each batch it folds in).  ``sweep16`` stands in for the
    full-machine pair here: made a sinked scenario with a flush
    threshold its ~4.4k spans cross many times."""
    import functools

    from repro.cli import main
    from repro.obs import scenarios

    monkeypatch.setattr(scenarios, "_SINKED", frozenset({"sweep16"}))
    monkeypatch.setattr(
        scenarios, "ObsRecorder", functools.partial(ObsRecorder, flush_threshold=100)
    )
    trace_path = tmp_path / "t.json"
    assert main(["profile", "sweep16", "--trace", str(trace_path)]) == 0
    full, _sim_time = run_scenario("sweep16", obs=ObsRecorder())
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert len(full.spans) > 1000
    assert sum(e["ph"] == "X" for e in events) == len(full.spans)


def test_format_profile_host_ms_per_rank_process():
    """The host-ms column finds each rank's process by its ``-rank<i>``
    suffix, whatever the scenario calls it (sweep-, solve-, ring-)."""
    from repro.obs import RankProfile, SimProfile

    def rank(track):
        phases = {"compute": 1.0, "recv-wait": 0.0, "send": 0.0, "collective": 0.0}
        return RankProfile(track=track, phases=phases, other=0.0, idle=0.0, total=1.0)

    prof = SimProfile(
        sim_time=1.0,
        ranks={0: rank(0), 1: rank(1), 2: rank(2)},
        host_time_by_process={
            "solve-rank0": 0.0042, "ring-rank1": 0.0125, "sweep-rank2": 0.5,
            "fault-node1": 9.0,
        },
    )
    rows = [
        line.split() for line in format_profile(prof).splitlines()
        if line.split()[:1] in (["0"], ["1"], ["2"])
    ]
    assert [(row[0], row[-1]) for row in rows] == [
        ("0", "4.2"), ("1", "12.5"), ("2", "500.0"),
    ]


def test_profile_cli_json(capsys):
    from repro.cli import main

    assert main(["profile", "ring8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["links"]
    assert payload["engine"]["events_by_class"]


def test_profile_cli_rejects_unknown_scenario(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["profile", "nope"])


def test_scenario_registry_rejects_unknown():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope")
