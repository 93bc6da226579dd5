"""Streaming span sinks: bounded-memory observability at full scale.

An :class:`~repro.obs.recorder.ObsRecorder` keeps every completed span
in its buffer by default — exactly right for tests and small profiles,
and exactly wrong at 3,060 ranks, where one sweep iteration closes
several hundred thousand spans and an enabled recorder would dwarf the
simulation's own working set.  A *sink* bounds that: the recorder still
buffers spans, but once the buffer reaches ``flush_threshold`` it hands
the buffer's columns to the sink and starts a new buffer, so live
memory is ``O(flush_threshold)`` plus the sink's own state instead of
``O(total spans)``.

:class:`AggregatingSink` folds each batch into the profiler's final
quantities *in place* — per-track self-time per category (the
innermost-wins rule of :func:`repro.obs.profiler.self_times`), per-track
top-level cover for the idle attribution, and per-link busy unions —
keeping only

* per track: self-time totals per category, the top-level intervals a
  still-open parent may yet claim, as ``(_AGG, track, t0, t1)`` tuples,
  and the span rows that may yet gain children (those closing at the
  current frontier);
* per link: the merged busy intervals, flat in one ``array('d')``, and
  a transfer count.

That state is ``O(tracks x categories + top-level spans + open-span
depth + link gaps)`` — independent of how many spans the run closes —
and holds no object per span that the cyclic garbage collector keeps
tracking: the tuples hold only strings and numbers.  The resulting
:class:`~repro.obs.profiler.SimProfile` (and therefore ``to_summary``)
is deterministic per seed and agrees with the unbounded computation to
floating-point roundoff (the per-category sums are accumulated in flush
order rather than global sort order; everything else — span counts,
transfer counts, counters, engine stats — is exact).
``benchmarks/perf/perf_fullmachine.py`` asserts both properties.

The sink needs the spans in closing order: nondecreasing ``t1``, which
every span recorded when it closes has, the simulated clock being
monotone.  A rank span that closes before the frontier of a batch the
sink has already folded would be charged twice, so :meth:`consume`
raises ``ValueError`` instead.  ``link`` spans may arrive in any order.

To inspect every span offline, record without a sink and write a
Chrome trace (``python -m repro profile <scenario> --trace``), which
streams the events to disk one at a time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Any

from repro.obs.profiler import (
    CATEGORY_PHASE,
    PHASES,
    LinkProfile,
    RankProfile,
    SimProfile,
    _walk,
    _walk_order,
)

__all__ = ["AggregatingSink"]

#: category marking an already-aggregated top-level interval record;
#: claimable by a late-closing parent but never charged to a phase
_AGG = "\x00agg"

_LINK_CATEGORY = "link"


def _absorb(busy: array, t0: float, t1: float) -> None:
    """Merge ``[t0, t1]`` into ``busy``: disjoint intervals, ascending,
    flat as ``start, end, start, end, ...``.

    In closing order (``t1`` at or past the last end) the interval
    absorbs the intervals at the tail that end at or after ``t0``: none,
    just the last, or — rarely — more.  The flat array is itself sorted,
    so in general two bisections find the run of intervals ``[t0, t1]``
    meets or touches, and the run becomes one interval.  Either way the
    result is the components of the union of closed intervals, whatever
    order the intervals arrive in: the components and endpoints a
    sort-and-merge gives.
    """
    if not busy or t0 > busy[-1]:
        busy.append(t0)
        busy.append(t1)
        return
    if t1 >= busy[-1] and t0 >= busy[-2]:
        busy[-1] = t1
        return
    lo = bisect_left(busy, t0)
    hi = bisect_right(busy, t1)
    if lo & 1:  # t0 falls inside an interval: extend from its start
        lo -= 1
        t0 = busy[lo]
    if hi & 1:  # t1 falls inside an interval: extend to its end
        t1 = busy[hi]
        hi += 1
    busy[lo:hi] = array("d", (t0, t1))


def _length(busy: array) -> float:
    """Summed length of merged intervals, added in ascending order."""
    total = 0.0
    for i in range(0, len(busy), 2):
        total += busy[i + 1] - busy[i]
    return total


def _fold(records: list[tuple], rows: list[tuple], totals: dict) -> list[tuple]:
    """The innermost-wins walk of one track's top-level ``records`` and
    complete span ``rows``: charges self times into ``totals`` and
    returns the walk's roots as the track's new records."""
    ordered = sorted(records + rows, key=_walk_order)
    return [
        r if r[0] is _AGG else (_AGG, r[1], r[2], r[3])
        for r in _walk(ordered, totals)
    ]


def _too_late(category, track, t1, frontier) -> ValueError:
    return ValueError(
        f"span {category!r} on track {track!r} closes at {t1!r}, before "
        f"{frontier!r}, the frontier the sink has already finalized; "
        "spans must reach the sink in closing order"
    )


class AggregatingSink:
    """In-place span aggregation; see the module docstring."""

    def __init__(self):
        self.flushed_spans = 0
        #: latest close time among the rank spans folded so far
        self._frontier = float("-inf")
        #: track -> {category: accumulated self time}
        self._cat_self: dict[Any, dict[str, float]] = {}
        #: track -> finalized top-level intervals, ``(_AGG, track, t0, t1)``
        self._records: dict[Any, list[tuple]] = {}
        #: track -> span rows closing at the frontier (may gain children)
        self._carry: dict[Any, list[tuple]] = {}
        #: link name -> merged busy intervals (see :func:`_absorb`)
        self._link_busy: dict[str, array] = {}
        #: link name -> transfer count
        self._link_transfers: dict[str, int] = {}

    # -- the sink protocol -------------------------------------------------
    def consume(self, categories, tracks, t0s, t1s, attrs) -> None:
        """Fold one batch of spans, given as the recorder's columns in
        recording order, into the state.

        Spans close in nondecreasing ``t1`` order (the simulated clock
        is monotone), so every span closing strictly before the batch's
        frontier ``T`` has its complete set of descendants in hand and
        can be finalized; spans at the frontier — and anything nested
        in them — are carried to the next flush.  A rank span closing
        before the previous batch's frontier raises ``ValueError``.
        """
        if not categories:
            return
        frontier = self._frontier
        if min(t1s) < frontier:
            for category, track, t1 in zip(categories, tracks, t1s):
                if t1 < frontier and category != _LINK_CATEGORY:
                    raise _too_late(category, track, t1, frontier)
        self.flushed_spans += len(categories)
        link_busy = self._link_busy
        link_transfers = self._link_transfers
        by_track: dict[Any, list[tuple]] = {}
        T = frontier
        for category, track, t0, t1 in zip(categories, tracks, t0s, t1s):
            if category == _LINK_CATEGORY:
                busy = link_busy.get(track)
                if busy is None:
                    busy = link_busy[track] = array("d")
                    link_transfers[track] = 0
                _absorb(busy, t0, t1)
                link_transfers[track] += 1
                continue
            rows = by_track.get(track)
            if rows is None:
                by_track[track] = [(category, track, t0, t1)]
            else:
                rows.append((category, track, t0, t1))
            if t1 > T:
                T = t1
        self._frontier = T
        carry = self._carry
        for track, rows in by_track.items():
            carried = carry.pop(track, None)
            if carried is not None:
                carried.extend(rows)
                rows = carried
            # Anything still closing at the frontier may gain children or
            # a parent from a later batch; anything nested inside such a
            # span (t0 >= its start) must wait with it.
            horizon = None
            for row in rows:
                if row[3] == T and (horizon is None or row[2] < horizon):
                    horizon = row[2]
            if horizon is not None:
                final = [r for r in rows if r[3] < T and r[2] < horizon]
                carry[track] = [
                    r for r in rows if not (r[3] < T and r[2] < horizon)
                ]
                if not final:
                    continue
                rows = final
            records = self._records.get(track)
            if records is None:
                records = []
                self._cat_self[track] = {}
            self._records[track] = _fold(records, rows, self._cat_self[track])

    # -- reading the aggregate --------------------------------------------
    def aggregate_profile(self, rec, sim_time: float) -> SimProfile:
        """The final :class:`SimProfile`, merging aggregated state with
        the recorder's still-buffered spans.  Non-destructive — the
        sink keeps accepting flushes afterwards."""
        if sim_time < 0:
            raise ValueError("sim_time must be >= 0")
        cat_self = {t: dict(v) for t, v in self._cat_self.items()}
        tails: dict[Any, list[tuple]] = {
            t: list(v) for t, v in self._carry.items()
        }
        link_tails: dict[str, list[tuple]] = {}
        frontier = self._frontier
        for row in rec.span_rows():
            if row[0] == _LINK_CATEGORY:
                link_tails.setdefault(row[1], []).append(row)
            elif row[3] < frontier:
                raise _too_late(row[0], row[1], row[3], frontier)
            else:
                tails.setdefault(row[1], []).append(row)
        covers: dict[Any, float] = {}
        tracks = set(self._cat_self) | set(tails)
        for track in tracks:
            records = self._records.get(track, [])
            tail = tails.get(track)
            if tail:
                records = _fold(records, tail, cat_self.setdefault(track, {}))
            cover = array("d")
            for record in records:
                _absorb(cover, record[2], record[3])
            covers[track] = _length(cover)

        ranks: dict[Any, RankProfile] = {}
        for track in sorted(tracks, key=repr):
            phases = {name: 0.0 for name in PHASES}
            other = 0.0
            for cat, self_time in cat_self[track].items():
                if cat is _AGG:
                    continue
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
        for name in sorted(set(self._link_busy) | set(link_tails)):
            busy = self._link_busy.get(name, array("d"))
            transfers = self._link_transfers.get(name, 0)
            tail = link_tails.get(name)
            if tail:
                busy = array("d", busy)
                for row in tail:
                    _absorb(busy, row[2], row[3])
                transfers += len(tail)
            links[name] = LinkProfile(
                name=name,
                busy_time=_length(busy),
                transfers=transfers,
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
