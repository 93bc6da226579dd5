"""Streaming span sinks: bounded-memory observability at full scale.

An :class:`~repro.obs.recorder.ObsRecorder` keeps every completed span
in a list by default — exactly right for tests and small profiles, and
exactly wrong at 3,060 ranks, where one sweep iteration closes several
hundred thousand spans and an enabled recorder would dwarf the
simulation's own working set.  A *sink* bounds that: the recorder still
buffers spans, but once the buffer passes ``flush_threshold`` it hands
the batch to the sink and clears it, so live memory is
``O(flush_threshold)`` plus the sink's own state instead of
``O(total spans)``.

:class:`AggregatingSink` folds each batch into the profiler's final
quantities *in place* — per-track self-time per category (the
innermost-wins rule of :func:`repro.obs.profiler.self_times`), per-track
top-level cover for the idle attribution, and per-link busy unions —
keeping only

* per track: self-time totals per category, the top-level interval
  records claimable by a still-open parent, and the spans that may yet
  gain children (those closing at the current frontier);
* per link: the merged busy-interval list and a transfer count.

That state is ``O(tracks x categories + top-level spans + open-span
depth + link gaps)`` — independent of how many spans the run closes.
The resulting :class:`~repro.obs.profiler.SimProfile` (and therefore
``to_summary``) is deterministic per seed and agrees with the unbounded
computation to floating-point roundoff (the per-category sums are
accumulated in flush order rather than global sort order; everything
else — span counts, transfer counts, counters, engine stats — is
exact).  ``benchmarks/perf/perf_fullmachine.py`` asserts both
properties.

To inspect every span offline, record without a sink and write a
Chrome trace (``python -m repro profile <scenario> --trace``), which
streams the events to disk one at a time.
"""

from __future__ import annotations

from typing import Any

from repro.obs.profiler import (
    CATEGORY_PHASE,
    PHASES,
    LinkProfile,
    RankProfile,
    SimProfile,
    _walk,
)
from repro.obs.recorder import SpanRecord

__all__ = ["AggregatingSink"]

#: category marking an already-aggregated top-level interval record;
#: claimable by a late-closing parent but never charged to a phase
_AGG = "\x00agg"

_LINK_CATEGORY = "link"


def _merge_intervals(intervals):
    """Merged disjoint ``[t0, t1]`` list from an unsorted interval list."""
    merged = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            if t1 > merged[-1][1]:
                merged[-1][1] = t1
        else:
            merged.append([t0, t1])
    return merged


class AggregatingSink:
    """In-place span aggregation; see the module docstring."""

    def __init__(self):
        self.flushed_spans = 0
        #: track -> {category: accumulated self time}
        self._cat_self: dict[Any, dict[str, float]] = {}
        #: track -> finalized top-level intervals (as ``_AGG`` spans)
        self._records: dict[Any, list[SpanRecord]] = {}
        #: track -> spans closing at the frontier (may gain children)
        self._carry: dict[Any, list[SpanRecord]] = {}
        #: link name -> merged busy intervals
        self._link_busy: dict[str, list[list[float]]] = {}
        #: link name -> transfer count
        self._link_transfers: dict[str, int] = {}

    # -- the sink protocol -------------------------------------------------
    def consume(self, spans: list[SpanRecord]) -> None:
        """Fold one batch of spans (in recording order) into the state.

        Spans close in nondecreasing ``t1`` order (the simulated clock
        is monotone), so every span closing strictly before the batch's
        frontier ``T`` has its complete set of descendants in hand and
        can be finalized; spans at the frontier — and anything nested
        in them — are carried to the next flush.
        """
        if not spans:
            return
        self.flushed_spans += len(spans)
        by_track: dict[Any, list[SpanRecord]] = {}
        T = float("-inf")
        for span in spans:
            if span.category == _LINK_CATEGORY:
                self._link_transfers[span.track] = (
                    self._link_transfers.get(span.track, 0) + 1
                )
                busy = self._link_busy.setdefault(span.track, [])
                busy.append([span.t0, span.t1])
            else:
                by_track.setdefault(span.track, []).append(span)
                if span.t1 > T:
                    T = span.t1
        for name, busy in self._link_busy.items():
            if len(busy) > 1:
                self._link_busy[name] = _merge_intervals(
                    (iv[0], iv[1]) for iv in busy
                )
        for track, batch in by_track.items():
            work = self._carry.pop(track, [])
            work.extend(batch)
            # Anything still closing at the frontier may gain children or
            # a parent from a later batch; anything nested inside such a
            # span (t0 >= its start) must wait with it.
            horizon = min(
                (s.t0 for s in work if s.t1 == T), default=float("inf")
            )
            final = [s for s in work if s.t1 < T and s.t0 < horizon]
            carry = [s for s in work if not (s.t1 < T and s.t0 < horizon)]
            if carry:
                self._carry[track] = carry
            if final:
                self._finalize(track, final)

    def _finalize(self, track, spans) -> None:
        """Charge self-times for complete spans; keep top-level records."""
        records = self._records.get(track, [])
        ordered = sorted(records + spans, key=lambda s: (s.t0, -s.t1))
        charged, roots = _walk(ordered)
        cat_self = self._cat_self.setdefault(track, {})
        for span, self_time in charged:
            cat = span.category
            if cat is not _AGG:
                cat_self[cat] = cat_self.get(cat, 0.0) + self_time
        self._records[track] = [
            r if r.category is _AGG else SpanRecord(_AGG, track, r.t0, r.t1)
            for r in roots
        ]

    # -- reading the aggregate --------------------------------------------
    def aggregate_profile(self, rec, sim_time: float) -> SimProfile:
        """The final :class:`SimProfile`, merging aggregated state with
        the recorder's still-buffered spans.  Non-destructive — the
        sink keeps accepting flushes afterwards."""
        if sim_time < 0:
            raise ValueError("sim_time must be >= 0")
        cat_self = {t: dict(v) for t, v in self._cat_self.items()}
        link_busy = {
            n: [list(iv) for iv in v] for n, v in self._link_busy.items()
        }
        link_transfers = dict(self._link_transfers)
        tails: dict[Any, list[SpanRecord]] = {
            t: list(v) for t, v in self._carry.items()
        }
        for span in rec.spans:
            if span.category == _LINK_CATEGORY:
                link_transfers[span.track] = (
                    link_transfers.get(span.track, 0) + 1
                )
                link_busy.setdefault(span.track, []).append(
                    [span.t0, span.t1]
                )
            else:
                tails.setdefault(span.track, []).append(span)
        covers: dict[Any, float] = {}
        tracks = set(self._cat_self) | set(tails)
        for track in tracks:
            records = self._records.get(track, [])
            ordered = sorted(
                records + tails.get(track, []), key=lambda s: (s.t0, -s.t1)
            )
            charged, roots = _walk(ordered)
            per_cat = cat_self.setdefault(track, {})
            for span, self_time in charged:
                cat = span.category
                if cat is not _AGG:
                    per_cat[cat] = per_cat.get(cat, 0.0) + self_time
            cover = 0.0
            for iv in _merge_intervals((r.t0, r.t1) for r in roots):
                cover += iv[1] - iv[0]
            covers[track] = cover

        ranks: dict[Any, RankProfile] = {}
        for track in sorted(tracks, key=repr):
            phases = {name: 0.0 for name in PHASES}
            other = 0.0
            for cat, self_time in cat_self[track].items():
                phase = CATEGORY_PHASE.get(cat)
                if phase is None:
                    other += self_time
                else:
                    phases[phase] += self_time
            ranks[track] = RankProfile(
                track=track,
                phases=phases,
                other=other,
                idle=sim_time - covers[track],
                total=sim_time,
            )
        bytes_by_track = rec.counter_by_track("link.bytes")
        links: dict[str, LinkProfile] = {}
        for name in sorted(link_busy):
            merged = _merge_intervals((iv[0], iv[1]) for iv in link_busy[name])
            busy = 0.0
            for iv in merged:
                busy += iv[1] - iv[0]
            links[name] = LinkProfile(
                name=name,
                busy_time=busy,
                transfers=link_transfers[name],
                bytes=bytes_by_track.get(name, 0.0),
                total=sim_time,
            )
        return SimProfile(
            sim_time=sim_time,
            ranks=ranks,
            links=links,
            host_time_by_process=dict(rec.host_time_by_process),
            events_by_class=dict(rec.events_by_class),
            host_run_time=rec.host_run_time,
        )

    def clear(self) -> None:
        """Drop all aggregated state (``ObsRecorder.clear`` calls this)."""
        self.flushed_spans = 0
        self._cat_self.clear()
        self._records.clear()
        self._carry.clear()
        self._link_busy.clear()
        self._link_transfers.clear()
