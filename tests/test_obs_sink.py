"""Tests for the streaming span sink (``repro.obs.sinks``).

The differential fixture ``tests/fixtures/sink_profiles.json`` pins the
summaries of seeded random span streams, recorded in closing order,
without a sink and through an :class:`AggregatingSink` at several flush
thresholds.  The streams nest spans several deep and include zero-length
spans, identical and touching intervals, several rank tracks and
overlapping ``link`` spans.  Regenerate the fixture only on purpose:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_sink.py
"""

from __future__ import annotations

import gc
import json
import os
import random
from pathlib import Path

import pytest

from repro.obs import (
    AggregatingSink,
    ObsRecorder,
    SpanRecord,
    deterministic_summary,
    profile,
)

FIXTURE = Path(__file__).parent / "fixtures" / "sink_profiles.json"

SEEDS = range(20)

#: flush thresholds the fixture records; ``None`` is the unbounded recorder
THRESHOLDS = (None, 1, 3, 250)

_CATEGORIES = (
    "sweep.compute", "mpi.recv", "mpi.send", "mpi.collective",
    "sweep.octant", "sweep.iteration",
)


def _forest(rng, track, lo, hi, depth, out):
    """Append properly nested spans inside the grid interval ``[lo, hi]``.

    Siblings are disjoint or touch; a first child may repeat its parent's
    interval exactly; any span may have zero length.
    """
    t = lo
    while t <= hi and rng.random() < (0.9 if depth == 0 else 0.7):
        start = t + rng.choice((0, 0, 1, 2, 3))
        if start > hi:
            break
        roll = rng.random()
        if roll < 0.15:
            end = start
        elif roll < 0.3 and depth and t == lo:
            start, end = lo, hi
        else:
            end = min(hi, start + rng.randint(1, 12))
        out.append((end, -depth, rng.random(), rng.choice(_CATEGORIES),
                    track, start, end))
        if depth < 3 and end > start:
            _forest(rng, track, start, end, depth + 1, out)
        t = end


def span_stream_for(seed):
    """``(sim_time, rows)``: one seeded stream of ``(category, track, t0,
    t1, attrs)`` rows in closing order (nondecreasing ``t1``; at a tie a
    nested span closes before its ancestors)."""
    rng = random.Random(seed)
    step = rng.choice((0.1, 0.25, 0.007))  # grid unit in simulated seconds
    horizon = rng.randint(40, 120)
    out = []
    for track in range(rng.randint(2, 6)):
        _forest(rng, track, 0, horizon, 0, out)
    for link in range(rng.randint(1, 4)):
        end = 0
        for _ in range(rng.randint(3, 25)):
            roll = rng.random()
            if roll < 0.2:
                start = end  # touches the previous transfer
            else:
                start = rng.randint(0, horizon)
            if roll > 0.9:
                stop = start
            else:
                stop = min(horizon, start + rng.randint(1, 15))
            end = stop
            out.append((stop, 0, rng.random(), "link", f"L{link}", start, stop))
            if rng.random() < 0.15:  # an identical transfer
                out.append((stop, 0, rng.random(), "link", f"L{link}",
                            start, stop))
    out.sort(key=lambda row: row[:3])
    rows = []
    for _end, _depth, _tie, category, track, start, stop in out:
        attrs = {"size": int(rng.randint(0, 4096))} if rng.random() < 0.5 else {}
        rows.append((category, track, start * step, stop * step, attrs))
    return (horizon + 1) * step, rows


def _summary(rows, sim_time, threshold):
    if threshold is None:
        rec = ObsRecorder()
    else:
        rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=threshold)
    for category, track, t0, t1, attrs in rows:
        rec.span(category, track, t0, t1, **attrs)
        if category == "link":
            rec.count("link.bytes", attrs.get("size", 0), track=track)
    summary = deterministic_summary(rec, sim_time)
    del summary["engine"]
    return json.loads(json.dumps(summary, sort_keys=True))


def test_sink_profiles_match_the_recorded_fixture():
    """Every stream's summary, with and without a sink, equals the
    recorded one bit for bit (floats round-trip through JSON exactly)."""
    got = {}
    for seed in SEEDS:
        sim_time, rows = span_stream_for(seed)
        got[str(seed)] = {
            str(threshold): _summary(rows, sim_time, threshold)
            for threshold in THRESHOLDS
        }
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        FIXTURE.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {FIXTURE}")
    want = json.loads(FIXTURE.read_text())
    assert sorted(got) == sorted(want)
    for seed, entries in want.items():
        for threshold, summary in entries.items():
            assert got[seed][threshold] == summary, (seed, threshold)


def test_recorder_buffers_columns_and_reads_them_back():
    """``span_rows`` yields plain tuples, ``spans`` a read-only list of
    ``SpanRecord``s, both in recording order; lengths are O(1) counts."""
    rec = ObsRecorder()
    rec.span("mpi.send", 0, 0.0, 1.5, dest=1, size=8)
    rec.span("link", "L0", 0.5, 1.5)
    assert list(rec.span_rows()) == [
        ("mpi.send", 0, 0.0, 1.5, {"dest": 1, "size": 8}),
        ("link", "L0", 0.5, 1.5, {}),
    ]
    assert rec.spans == [
        SpanRecord("mpi.send", 0, 0.0, 1.5, (("dest", 1), ("size", 8))),
        SpanRecord("link", "L0", 0.5, 1.5),
    ]
    assert rec.spans[0].duration == 1.5
    assert len(rec) == rec.span_count == 2
    with pytest.raises(AttributeError):
        rec.spans = []
    with pytest.raises(ValueError, match="ends before it starts"):
        rec.span("x", 0, 2.0, 1.0)
    assert len(rec) == 2


def _sort_merge_busy(intervals):
    """Busy time of a link: the union of closed intervals, merged after
    a sort and summed in ascending order."""
    merged = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    busy = 0.0
    for t0, t1 in merged:
        busy += t1 - t0
    return busy


@pytest.mark.parametrize("threshold", [1, 3, 250])
def test_link_spans_out_of_closing_order_match_the_sort_merge(threshold):
    """Link spans may reach the sink in any order; each link's busy time
    still equals the sort-merge's, bit for bit."""
    rng = random.Random(11)
    in_order = []
    for _ in range(60):
        t0 = rng.randint(0, 300) * 0.1
        in_order.append((t0, t0 + rng.choice((0, 0.1, 0.7, 2.3, 9.9))))
    in_order.sort(key=lambda iv: iv[1])
    shuffled = list(in_order)
    rng.shuffle(shuffled)
    # a closing-order prefix, then the same intervals in random order
    stream = in_order[:30] + shuffled
    rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=threshold)
    for t0, t1 in stream:
        rec.span("link", "L0", t0, t1)
    link = profile(rec, 50.0).links["L0"]
    assert link.transfers == len(stream)
    assert link.busy_time == _sort_merge_busy(stream)


def test_sink_rejects_a_span_closing_before_its_finalized_frontier():
    """A rank span closing before a flushed batch's frontier would be
    charged twice (``outer`` is already finalized with 10 s of self
    time); the sink names the span instead of double-counting."""
    rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=2)
    rec.span("outer", 0, 0.0, 10.0)
    rec.span("a", 1, 11.0, 12.0)  # flush: frontier 12, outer finalized
    rec.span("b", 1, 12.0, 13.0)
    with pytest.raises(ValueError, match="'inner' on track 0 closes at 3.0"):
        rec.span("inner", 0, 2.0, 3.0)


def test_sink_rejects_a_buffered_span_behind_the_frontier_when_profiling():
    rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=3)
    rec.span("outer", 0, 0.0, 10.0)
    rec.span("a", 1, 11.0, 12.0)
    rec.span("b", 1, 12.0, 13.0)  # flush: frontier 13
    rec.span("inner", 0, 2.0, 3.0)  # buffered, not yet flushed
    with pytest.raises(ValueError, match="'inner'"):
        profile(rec, 13.0)


def test_sink_accepts_spans_closing_at_the_frontier_and_late_link_spans():
    """The frontier itself is not behind: a parent closing exactly at it
    still claims its finalized children; link spans are never checked."""
    rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=2)
    rec.span("leaf", 0, 1.0, 2.0)
    rec.span("leaf", 1, 3.0, 5.0)  # flush: frontier 5, track 0 finalized
    rec.span("outer", 0, 0.0, 5.0)
    rec.span("link", "L0", 0.0, 1.0)  # flush: a link span behind the frontier
    rec.flush()
    ranks = profile(rec, 5.0).ranks
    assert ranks[0].other == 5.0 and ranks[0].idle == 0.0
    assert ranks[1].other == 2.0 and ranks[1].idle == 3.0


@pytest.mark.parametrize(
    "bad, error",
    [(float("nan"), TypeError), ("10", TypeError), (2.5, TypeError),
     (True, TypeError), (0, ValueError), (-5, ValueError)],
)
def test_flush_threshold_must_be_a_positive_int(bad, error):
    with pytest.raises(error, match="flush_threshold"):
        ObsRecorder(sink=AggregatingSink(), flush_threshold=bad)


def _retained_tracked_objects(n):
    """GC-tracked objects a sink-backed recorder keeps after recording
    ``n`` disjoint link spans and ``n`` disjoint ``mpi.send`` spans, each
    kind spread over 10 tracks."""
    gc.collect()
    before = len(gc.get_objects())
    rec = ObsRecorder(sink=AggregatingSink(), flush_threshold=100)
    for i in range(n):
        t0 = float(i)
        rec.span("link", f"link{i % 10}", t0, t0 + 0.5, size=1024)
        rec.span("mpi.send", i % 10, t0, t0 + 0.5, dest=1, size=1024, tag=0)
    gc.collect()
    retained = len(gc.get_objects()) - before
    assert rec.span_count == 2 * n
    return retained


def test_sink_state_holds_no_tracked_object_per_span():
    """What a run keeps per span (top-level records, merged link
    intervals) must not hold objects the cyclic GC keeps scanning: the
    count stays bounded as the run grows."""
    assert _retained_tracked_objects(1_000) <= 200
    assert _retained_tracked_objects(10_000) <= 200
