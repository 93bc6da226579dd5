"""The observability recorder: spans, counters, gauges, engine stats.

One :class:`ObsRecorder` is the sink for every instrumented layer of a
simulation run:

* **Spans** are *simulated-time* intervals ``[t0, t1]`` on a *track*
  (an MPI rank index, a link name, ...), carrying a category string and
  arbitrary attributes.  Spans nest — a collective span contains its
  send/recv spans, an octant span contains its compute blocks — and the
  profiler (:mod:`repro.obs.profiler`) attributes each instant to the
  innermost enclosing span's category.
* **Events** are instants on a track — facts with no duration (a
  retry, a fault).  They are kept apart from the spans:
  the profiler, the summary and the span stream never see them, and
  the Chrome trace shows them as instant markers.
* **Counters** accumulate (messages, bytes, retries);
  **gauges** hold a last-written value.
* **Engine statistics** arrive through the
  :class:`~repro.sim.engine.Simulator` observer protocol
  (:meth:`ObsRecorder._note_event`): events processed per event class,
  process resumes, and *host* wall-clock seconds attributed to each
  resumed process — the host-time half of the profiler.

Overhead contract
-----------------
Recording is **off by default** everywhere.  Every instrumented
component takes ``obs=None`` — no recorder, or an :class:`ObsRecorder`
— and stores it as given; the disabled hot paths pay one attribute
load and an ``is None`` test, allocate nothing, and schedule no events
— the simulated timeline is bit-identical to the uninstrumented code
(asserted in ``benchmarks/perf/perf_obs.py``).  With a recorder attached, recording
still never *perturbs* the simulation: spans and counters are appended
out-of-band, so the same seed produces the identical event timeline
*and* the identical span stream, run after run.  Host wall-clock
fields (``host_time_by_process``, ``host_run_time``) are the only
nondeterministic contents and are excluded from exported span streams.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple

__all__ = ["SpanRecord", "ObsRecorder"]


def _ends_before(category, t0, t1) -> ValueError:
    return ValueError(
        f"span {category!r} ends before it starts ({t1!r} < {t0!r})"
    )


class _SpanFields(NamedTuple):
    category: str
    track: Any
    t0: float
    t1: float
    attrs: tuple[tuple[str, Any], ...] = ()


class SpanRecord(_SpanFields):
    """One completed simulated-time interval on one track.

    A tuple ``(category, track, t0, t1, attrs)``: the layout of the
    recorder's rows (:meth:`ObsRecorder.span_rows`), so the profiler's
    walk reads records and rows alike.
    """

    __slots__ = ()

    def __new__(cls, category, track, t0, t1, attrs=()):
        if t1 < t0:
            raise _ends_before(category, t0, t1)
        return super().__new__(cls, category, track, t0, t1, attrs)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class ObsRecorder:
    """Accumulates spans, events, counters, gauges and engine statistics.

    ``categories``, when given, restricts *span* and *event* recording
    to those categories (counters and gauges are always kept — they are
    cheap and the profile tables read them).  ``categories=()`` skips
    span retention entirely, so a counter-only recorder stays
    flat-memory no matter how long the run is.

    Spans are buffered as five parallel columns (category, track, t0,
    t1, attrs), one list each: recording a span appends to each list
    and builds no object of its own — the attrs column keeps the call's
    keyword dict.  :meth:`span_rows` reads the buffer back as plain
    tuples and :attr:`spans` as :class:`SpanRecord` objects.

    Memory contract: without a sink, the buffer grows with every span
    recorded — O(total spans), fine for tests and small profiles.  For
    full-machine runs attach a *sink*
    (:class:`repro.obs.sinks.AggregatingSink`): once the buffer
    reaches ``flush_threshold`` spans its columns are handed to
    ``sink.consume()`` and dropped, bounding live memory at
    O(``flush_threshold`` + sink state) while ``profile()`` /
    ``to_summary`` keep working via the sink's aggregate.
    """

    def __init__(self, categories=None, *, sink: Any = None,
                 flush_threshold: int = 10_000):
        if not isinstance(flush_threshold, int) or isinstance(flush_threshold, bool):
            raise TypeError(
                f"flush_threshold must be an int, got {flush_threshold!r}"
            )
        if flush_threshold < 1:
            raise ValueError(
                f"flush_threshold must be >= 1, got {flush_threshold!r}"
            )
        self.categories: frozenset[str] | None = categories
        #: streaming span sink; buffered spans are flushed to it in batches
        self.sink = sink
        #: buffered-span count that triggers a flush to ``sink``
        self.flush_threshold = flush_threshold
        # the span buffer: category, track, t0, t1 and attrs columns, in
        # recording (close) order
        self._columns: tuple[list, list, list, list, list] = ([], [], [], [], [])
        #: instant events (``t0 == t1``), in recording order; never flushed
        #: to the sink — they are rare (retries, faults)
        self.events: list[SpanRecord] = []
        #: ``(name, track)`` -> accumulated value; ``track=None`` is global
        self.counters: dict[tuple[str, Any], float] = {}
        #: ``(name, track)`` -> last written value
        self.gauges: dict[tuple[str, Any], float] = {}
        # -- engine observer state (see Simulator.attach_observer) -------
        #: events processed per event class name
        self.events_by_class: dict[str, int] = {}
        #: process resumptions per process name
        self.resumes_by_process: dict[str, int] = {}
        #: host wall-clock seconds spent resuming each process (includes
        #: the model code the resume runs; nondeterministic, never
        #: exported in span streams)
        self.host_time_by_process: dict[str, float] = {}
        #: total host seconds inside observed ``Simulator.run`` calls
        self.host_run_time = 0.0

    # -- spans ------------------------------------------------------------
    def span(self, category: str, track: Any, t0: float, t1: float, **attrs) -> None:
        """Record one completed simulated-time span."""
        if self.categories is not None and category not in self.categories:
            return
        if t1 < t0:
            raise _ends_before(category, t0, t1)
        category_col, track_col, t0_col, t1_col, attrs_col = self._columns
        category_col.append(category)
        track_col.append(track)
        t0_col.append(t0)
        t1_col.append(t1)
        attrs_col.append(attrs)
        if self.sink is not None and len(category_col) >= self.flush_threshold:
            self.flush()

    def event(self, category: str, track: Any, time: float, **attrs) -> None:
        """Record one instant event (kept in ``events``, not ``spans``)."""
        if self.categories is not None and category not in self.categories:
            return
        self.events.append(
            SpanRecord(category, track, time, time, tuple(attrs.items()))
        )

    def flush(self) -> None:
        """Hand any buffered spans to the sink now (no-op without one)."""
        if self.sink is not None and self._columns[0]:
            columns = self._columns
            self._columns = ([], [], [], [], [])
            self.sink.consume(*columns)

    def span_rows(self) -> Iterator[tuple[str, Any, float, float, dict]]:
        """The buffered spans as ``(category, track, t0, t1, attrs)``
        tuples, in recording order, one at a time; ``attrs`` is the
        recorded keyword dict (read it, do not change it)."""
        return zip(*self._columns)

    @property
    def spans(self) -> list[SpanRecord]:
        """The buffered spans as :class:`SpanRecord` objects, in
        recording (simulated-time close) order: a new list per read.
        With a sink attached it holds only the spans not yet flushed."""
        return [
            SpanRecord(category, track, t0, t1, tuple(attrs.items()))
            for category, track, t0, t1, attrs in self.span_rows()
        ]

    @property
    def span_count(self) -> int:
        """Total spans recorded, including those flushed to the sink."""
        flushed = getattr(self.sink, "flushed_spans", 0) if self.sink else 0
        return len(self._columns[0]) + flushed

    # -- counters and gauges ----------------------------------------------
    def count(self, name: str, value: float = 1.0, track: Any = None) -> None:
        """Add ``value`` to a counter."""
        key = (name, track)
        counters = self.counters
        counters[key] = counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, track: Any = None) -> None:
        """Set a gauge to its latest value."""
        self.gauges[(name, track)] = value

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every track."""
        return sum(v for (n, _t), v in self.counters.items() if n == name)

    def counter_by_track(self, name: str) -> dict[Any, float]:
        """One counter's per-track values."""
        return {t: v for (n, t), v in self.counters.items() if n == name}

    # -- engine observer protocol -----------------------------------------
    def _note_event(self, cls_name: str, proc_name: str | None, host_dt: float) -> None:
        """One processed event (called by the observed engine loop)."""
        events = self.events_by_class
        events[cls_name] = events.get(cls_name, 0) + 1
        if proc_name is not None:
            resumes = self.resumes_by_process
            resumes[proc_name] = resumes.get(proc_name, 0) + 1
            host = self.host_time_by_process
            host[proc_name] = host.get(proc_name, 0.0) + host_dt

    def __len__(self) -> int:
        return len(self._columns[0])
