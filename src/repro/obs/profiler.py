"""Sim-time profiler: attribute simulated time per rank, phase and link.

Consumes an :class:`~repro.obs.recorder.ObsRecorder` and answers the
question the paper's own figures answer for the real machine — *where
does the time go?* — for the simulation itself:

* per **rank**: simulated seconds in each phase (``compute`` /
  ``recv-wait`` / ``send`` / ``collective``), plus ``other`` (inside
  instrumented spans of unmapped categories, e.g. the sweep's
  octant/iteration framing) and ``idle`` (outside every span).  The six
  buckets sum to the run's total simulated time exactly (within
  floating-point roundoff; the acceptance tests pin 1e-9).
* per **link**: busy time (union of transfer spans), utilization and
  bytes carried — the per-link occupancy view of the contended fabric.
* per **process**: *host* wall-clock seconds, from the engine observer.

Attribution is innermost-wins: every instant of a span's duration not
covered by a child span is charged to that span's category, so a
collective's internal sends count as ``send`` and only its
synchronization residue counts as ``collective``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.recorder import ObsRecorder, SpanRecord

__all__ = [
    "PHASES",
    "CATEGORY_PHASE",
    "RankProfile",
    "LinkProfile",
    "SimProfile",
    "self_times",
    "phase_breakdown",
    "link_occupancy",
    "profile",
]

#: the profiler's phase buckets, in display order
PHASES = ("compute", "recv-wait", "send", "collective")

#: span category -> phase bucket (anything else lands in ``other``)
CATEGORY_PHASE = {
    "sweep.compute": "compute",
    "mpi.recv": "recv-wait",
    "mpi.send": "send",
    "mpi.collective": "collective",
}

#: span categories whose tracks are links, not ranks
_LINK_CATEGORY = "link"


def self_times(spans: list[SpanRecord]) -> list[tuple[SpanRecord, float]]:
    """Exclusive (self) time of each span on **one** track.

    Spans must be properly nested — two spans either don't overlap or
    one contains the other; partial overlap raises ``ValueError``.  A
    span's self time is its duration minus its direct children's
    durations (the innermost-wins rule).
    """
    return _walk(sorted(spans, key=lambda s: (s.t0, -s.t1)))[0]


def _walk(ordered):
    """The innermost-wins stack walk of one track's spans.

    ``ordered`` must be sorted by ``(t0, -t1)`` (stable, so recording
    order breaks ties).  Returns ``(charged, roots)``: ``(span,
    self_time)`` for every span, in closing order, and the forest's
    roots — the top-level spans.  Partial overlap raises ``ValueError``.
    """
    out = []
    roots = []
    stack = []  # [span, child_time] for the currently open ancestry
    for span in ordered:
        while stack and stack[-1][0].t1 <= span.t0:
            parent, child_time = stack.pop()
            out.append((parent, parent.duration - child_time))
            if stack:
                stack[-1][1] += parent.duration
            else:
                roots.append(parent)
        if stack and span.t1 > stack[-1][0].t1:
            top = stack[-1][0]
            raise ValueError(
                f"spans overlap without nesting: {span.category!r} "
                f"[{span.t0!r}, {span.t1!r}] vs {top.category!r} "
                f"[{top.t0!r}, {top.t1!r}]"
            )
        stack.append([span, 0.0])
    while stack:
        parent, child_time = stack.pop()
        out.append((parent, parent.duration - child_time))
        if stack:
            stack[-1][1] += parent.duration
        else:
            roots.append(parent)
    return out, roots


def _interval_union(spans: list[SpanRecord]) -> float:
    """Total length of the union of span intervals (one track)."""
    total = 0.0
    end = float("-inf")
    for span in sorted(spans, key=lambda s: s.t0):
        if span.t0 > end:
            total += span.t1 - span.t0
            end = span.t1
        elif span.t1 > end:
            total += span.t1 - end
            end = span.t1
    return total


@dataclass
class RankProfile:
    """One rank's simulated-time attribution."""

    track: Any
    phases: dict[str, float]
    other: float
    idle: float
    total: float

    def covered(self) -> float:
        """Simulated time inside any span."""
        return sum(self.phases.values()) + self.other

    def attribution_sum(self) -> float:
        """Phases + other + idle; equals ``total`` within roundoff."""
        return self.covered() + self.idle


@dataclass
class LinkProfile:
    """One link's occupancy over the run."""

    name: str
    busy_time: float
    transfers: int
    bytes: float
    total: float

    @property
    def utilization(self) -> float:
        return self.busy_time / self.total if self.total > 0 else 0.0


@dataclass
class SimProfile:
    """The full profile of one recorded run."""

    sim_time: float
    ranks: dict[Any, RankProfile] = field(default_factory=dict)
    links: dict[str, LinkProfile] = field(default_factory=dict)
    #: host wall-clock seconds per process name (engine observer)
    host_time_by_process: dict[str, float] = field(default_factory=dict)
    #: events processed per event class (engine observer)
    events_by_class: dict[str, int] = field(default_factory=dict)
    host_run_time: float = 0.0


def _spans_by_track(rec: ObsRecorder) -> tuple[dict, dict]:
    """Split spans into per-rank and per-link track maps."""
    rank_spans: dict[Any, list[SpanRecord]] = {}
    link_spans: dict[str, list[SpanRecord]] = {}
    for span in rec.spans:
        if span.category == _LINK_CATEGORY:
            link_spans.setdefault(span.track, []).append(span)
        else:
            rank_spans.setdefault(span.track, []).append(span)
    return rank_spans, link_spans


def phase_breakdown(rec: ObsRecorder, sim_time: float) -> dict[Any, RankProfile]:
    """Per-rank phase attribution over ``[0, sim_time]``."""
    rank_spans, _links = _spans_by_track(rec)
    out: dict[Any, RankProfile] = {}
    for track in sorted(rank_spans, key=repr):
        spans = rank_spans[track]
        phases = {name: 0.0 for name in PHASES}
        other = 0.0
        for span, self_time in self_times(spans):
            phase = CATEGORY_PHASE.get(span.category)
            if phase is None:
                other += self_time
            else:
                phases[phase] += self_time
        # Idle closes the attribution against the top-level span cover,
        # so phases + other + idle telescopes back to sim_time.
        top_cover = _interval_union(spans)
        out[track] = RankProfile(
            track=track,
            phases=phases,
            other=other,
            idle=sim_time - top_cover,
            total=sim_time,
        )
    return out


def link_occupancy(rec: ObsRecorder, sim_time: float) -> dict[str, LinkProfile]:
    """Per-link busy time / transfer count / bytes."""
    _ranks, link_spans = _spans_by_track(rec)
    bytes_by_track = rec.counter_by_track("link.bytes")
    out: dict[str, LinkProfile] = {}
    for name in sorted(link_spans):
        spans = link_spans[name]
        out[name] = LinkProfile(
            name=name,
            busy_time=_interval_union(spans),
            transfers=len(spans),
            bytes=bytes_by_track.get(name, 0.0),
            total=sim_time,
        )
    return out


def profile(rec: ObsRecorder, sim_time: float) -> SimProfile:
    """Build the full :class:`SimProfile` of one recorded run.

    A recorder with a streaming sink attached (see
    :mod:`repro.obs.sinks`) delegates to the sink's aggregate, merging
    it with any still-buffered spans — same profile, bounded memory.
    """
    if sim_time < 0:
        raise ValueError("sim_time must be >= 0")
    sink = getattr(rec, "sink", None)
    if sink is not None and hasattr(sink, "aggregate_profile"):
        return sink.aggregate_profile(rec, sim_time)
    return SimProfile(
        sim_time=sim_time,
        ranks=phase_breakdown(rec, sim_time),
        links=link_occupancy(rec, sim_time),
        host_time_by_process=dict(rec.host_time_by_process),
        events_by_class=dict(rec.events_by_class),
        host_run_time=rec.host_run_time,
    )
