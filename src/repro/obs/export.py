"""Exporters for recorded observability data.

Four output formats, all derived from one
:class:`~repro.obs.recorder.ObsRecorder`:

* :func:`span_stream` / :func:`to_summary` — plain JSON-able structures
  (the span stream is the golden-trace fixture format: deterministic,
  sim-time only, no host wall-clock contamination);
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON object format, loadable in ``about://tracing``
  and Perfetto (ranks and links render as separate processes; span
  times are exported in microseconds of *simulated* time);
* :func:`format_profile` — the text breakdown table behind
  ``python -m repro profile <scenario>``;
* :func:`format_gantt` — a text Gantt chart of one span category
  (by default the sweep's ``sweep.compute`` blocks).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import Any

from repro.obs.profiler import PHASES, SimProfile, profile
from repro.obs.recorder import ObsRecorder

__all__ = [
    "span_stream",
    "to_summary",
    "counter_snapshot",
    "deterministic_summary",
    "phase_fractions",
    "SUMMARY_SCHEMA",
    "SUMMARY_RANK_FIELDS",
    "to_chrome_trace",
    "write_chrome_trace",
    "format_profile",
    "format_gantt",
]

#: the stable top-level keys of a :func:`to_summary` document.  External
#: readers (the perf framework's profile-shape gates, campaign artifact
#: consumers) key off this constant instead of hard-coding strings, so a
#: schema change shows up as one obvious diff here.
SUMMARY_SCHEMA: tuple[str, ...] = (
    "sim_time",
    "span_count",
    "ranks",
    "links",
    "counters",
    "gauges",
    "engine",
)

#: the per-rank attribution fields inside ``summary["ranks"][track]``:
#: the profiler phases plus the residual/idle/total bookkeeping.
SUMMARY_RANK_FIELDS: tuple[str, ...] = (*PHASES, "other", "idle", "total")

#: simulated seconds -> trace_event timestamp units (microseconds)
_TS_SCALE = 1e6


def span_stream(rec: ObsRecorder) -> list[dict[str, Any]]:
    """The recorder's spans as JSON-able dicts, in recording order.

    This is the assertable fixture format: deterministic for a fixed
    seed (host wall-clock data never appears in it), and stable under
    JSON round-trips (floats survive via repr round-tripping).
    """
    return [
        {
            "category": category,
            "track": track,
            "t0": t0,
            "t1": t1,
            "attrs": dict(attrs),
        }
        for category, track, t0, t1, attrs in rec.span_rows()
    ]


def _counter_map(rec: ObsRecorder) -> dict[str, dict[str, float]]:
    """Counters as ``name -> {"total": x, "by_track": {...}}``."""
    out: dict[str, dict[str, Any]] = {}
    for (name, track), value in rec.counters.items():
        entry = out.setdefault(name, {"total": 0.0, "by_track": {}})
        entry["total"] += value
        if track is not None:
            entry["by_track"][str(track)] = (
                entry["by_track"].get(str(track), 0.0) + value
            )
    return {name: out[name] for name in sorted(out)}


def to_summary(rec: ObsRecorder, sim_time: float) -> dict[str, Any]:
    """Full JSON summary: profile, counters, gauges, engine stats."""
    prof = profile(rec, sim_time)
    ranks = {
        str(track): {
            **{phase: rp.phases[phase] for phase in PHASES},
            "other": rp.other,
            "idle": rp.idle,
            "total": rp.total,
        }
        for track, rp in prof.ranks.items()
    }
    links = {
        name: {
            "busy_time": lp.busy_time,
            "utilization": lp.utilization,
            "transfers": lp.transfers,
            "bytes": lp.bytes,
        }
        for name, lp in prof.links.items()
    }
    return {
        "sim_time": sim_time,
        "span_count": rec.span_count,
        "ranks": ranks,
        "links": links,
        "counters": _counter_map(rec),
        "gauges": {
            f"{name}" if track is None else f"{name}[{track}]": value
            for (name, track), value in sorted(
                rec.gauges.items(), key=lambda kv: repr(kv[0])
            )
        },
        "engine": {
            "events_by_class": dict(rec.events_by_class),
            "resumes_by_process": dict(rec.resumes_by_process),
            "host_run_time_s": rec.host_run_time,
        },
    }


def phase_fractions(summary: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per-rank phase *fractions* of a :func:`to_summary` document.

    For every track, each attribution field (compute, recv-wait, send,
    collective, other, idle) divided by that rank's total.  Fractions of
    one deterministic run are themselves deterministic, which is what
    makes them pinnable in tolerance bands where wall-clock metrics are
    not.  Ranks with a zero total are omitted (nothing to attribute).
    """
    out: dict[str, dict[str, float]] = {}
    for track, fields in summary["ranks"].items():
        total = fields["total"]
        if total <= 0:
            continue
        out[str(track)] = {
            name: fields[name] / total
            for name in SUMMARY_RANK_FIELDS
            if name != "total"
        }
    return out


def counter_snapshot(rec: ObsRecorder,
                     prefix: str | None = None) -> dict[str, float]:
    """Flat, JSON-able counter totals (track dimension summed away).

    The progress-event payload for streaming consumers — e.g. the
    campaign service embeds a snapshot in every emitted event, so a
    client can render a live gauge from any single line.  ``prefix``
    restricts the snapshot to counters whose name starts with it.
    """
    totals: dict[str, float] = {}
    for (name, _track), value in rec.counters.items():
        if prefix is not None and not name.startswith(prefix):
            continue
        totals[name] = totals.get(name, 0.0) + value
    return {name: totals[name] for name in sorted(totals)}


def deterministic_summary(rec: ObsRecorder, sim_time: float) -> dict[str, Any]:
    """:func:`to_summary` with the host wall-clock field removed.

    Host run time is the one nondeterministic value in the summary;
    stripping it makes the result a pure function of the simulated
    run — safe to content-address, cache, and compare across worker
    processes (the campaign artifact contract).
    """
    summary = to_summary(rec, sim_time)
    engine = dict(summary["engine"])
    engine.pop("host_run_time_s", None)
    summary["engine"] = engine
    return summary


def _trace_events(rec: ObsRecorder) -> Iterator[dict[str, Any]]:
    """The ``traceEvents`` of :func:`to_chrome_trace`, one at a time, in
    order: a thread's ``thread_name`` metadata event comes just before
    the first event on that thread."""
    tids: tuple[dict[Any, int], dict[Any, int]] = ({}, {})  # ranks, links

    def _thread(track: Any, is_link: bool) -> tuple[int, dict | None]:
        table = tids[is_link]
        tid = table.get(track)
        if tid is not None:
            return tid, None
        tid = table[track] = len(table)
        return tid, {
            "ph": "M",
            "pid": 2 if is_link else 1,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": str(track)},
        }

    for pid, name in ((1, "sim ranks"), (2, "links")):
        yield {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": name},
        }
    for category, track, t0, t1, attrs in rec.span_rows():
        is_link = category == "link"
        tid, meta = _thread(track, is_link)
        if meta is not None:
            yield meta
        yield {
            "ph": "X",
            "pid": 2 if is_link else 1,
            "tid": tid,
            "name": category,
            "cat": category,
            "ts": t0 * _TS_SCALE,
            "dur": (t1 - t0) * _TS_SCALE,
            "args": dict(attrs),
        }
    for event in rec.events:
        track = event.track
        if not event.category.startswith("mpi."):
            track = f"{event.category} {track}"
        tid, meta = _thread(track, False)
        if meta is not None:
            yield meta
        yield {
            "ph": "i",
            "s": "t",
            "pid": 1,
            "tid": tid,
            "name": event.category,
            "cat": event.category,
            "ts": event.t0 * _TS_SCALE,
            "args": dict(event.attrs),
        }


def to_chrome_trace(rec: ObsRecorder) -> dict[str, Any]:
    """The span stream in Chrome ``trace_event`` object format.

    Ranks live under pid 1 ("sim ranks", one thread per rank) and links
    under pid 2 ("links", one thread per link name); every span becomes
    a complete ("X") event with microsecond sim-time timestamps, and
    every recorded event an instant ("i") event under pid 1: an
    ``mpi.*`` event on its rank's thread, any other on a thread of its
    own named ``"<category> <track>"`` (a fault's track is a node or
    link, not a rank).
    """
    return {"traceEvents": list(_trace_events(rec)), "displayTimeUnit": "ms"}


def write_chrome_trace(rec: ObsRecorder, path) -> None:
    """Write :func:`to_chrome_trace` output as JSON to ``path``.

    The events are encoded one at a time as they are generated, so the
    writer holds one event dict, not one per span; the bytes equal
    ``json.dumps(to_chrome_trace(rec))``.
    """
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        for i, event in enumerate(_trace_events(rec)):
            if i:
                fh.write(", ")
            fh.write(json.dumps(event))
        fh.write('], "displayTimeUnit": "ms"}')


def _fmt_pct(value: float, total: float) -> str:
    return f"{100.0 * value / total:5.1f}%" if total > 0 else "    -"


def format_profile(prof: SimProfile, title: str | None = None) -> str:
    """The text breakdown table (``python -m repro profile``)."""
    from repro.core.report import format_table

    # Host time is per process; scenarios name their rank processes
    # ``<name>-rank<i>`` (sweep-, solve-, ring-), so key it by rank.
    host_by_rank: dict[str, float] = {}
    for process, seconds in prof.host_time_by_process.items():
        _head, sep, rank = process.rpartition("-rank")
        if sep:
            host_by_rank[rank] = host_by_rank.get(rank, 0.0) + seconds
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("")
    lines.append(f"total simulated time: {prof.sim_time:.6g} s")
    if prof.host_run_time > 0:
        lines.append(f"host wall-clock (observed runs): {prof.host_run_time:.3f} s")
    if prof.events_by_class:
        counts = ", ".join(
            f"{name}={count}" for name, count in sorted(prof.events_by_class.items())
        )
        lines.append(f"events processed: {counts}")
    if prof.ranks:
        rows = []
        shown = list(prof.ranks.items())
        dropped = len(shown) - 32
        if dropped > 0:
            # Full-machine profiles have thousands of ranks; the table
            # shows the first 32 tracks and says what it dropped.
            shown = shown[:32]
        for track, rp in shown:
            rows.append(
                (
                    str(track),
                    *(_fmt_pct(rp.phases[phase], rp.total) for phase in PHASES),
                    _fmt_pct(rp.other, rp.total),
                    _fmt_pct(rp.idle, rp.total),
                    f"{host_by_rank.get(str(track), 0.0) * 1e3:.1f}"
                    if prof.host_time_by_process
                    else "-",
                )
            )
        lines.append("")
        lines.append(
            format_table(
                ["rank", *PHASES, "other", "idle", "host ms"],
                rows,
                title="per-rank sim-time attribution",
            )
        )
        if dropped > 0:
            lines.append(f"... and {dropped} more ranks (see to_summary)")
    if prof.links:
        busiest = sorted(
            prof.links.values(), key=lambda lp: lp.busy_time, reverse=True
        )[:12]
        rows = [
            (
                lp.name,
                f"{lp.busy_time:.6g}",
                f"{100.0 * lp.utilization:.1f}%",
                lp.transfers,
                f"{lp.bytes:.0f}",
            )
            for lp in busiest
        ]
        lines.append("")
        lines.append(
            format_table(
                ["link", "busy s", "util", "transfers", "bytes"],
                rows,
                title="per-link occupancy (busiest first)",
            )
        )
    return "\n".join(lines)


def format_gantt(rec: ObsRecorder, width: int = 60) -> str:
    """A text Gantt chart of the ``sweep.compute`` spans.

    One row per track, named ``rank<track>``, in order of first
    appearance; ``width`` columns of simulated time over the spans'
    whole extent, ``#`` where the track is inside a span, and the
    track's busy fraction of that extent.  Reads the buffered spans only,
    so a recorder with a sink draws just its unflushed tail.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    rows: dict[Any, list[tuple[float, float]]] = {}
    for category, track, t0, t1, _attrs in rec.span_rows():
        if category == "sweep.compute":
            rows.setdefault(track, []).append((t0, t1))
    if not rows:
        return "(empty timeline)"
    lo = min(t0 for spans in rows.values() for t0, _t1 in spans)
    hi = max(t1 for spans in rows.values() for _t0, t1 in spans)
    total = hi - lo
    if total <= 0:
        return "(empty timeline)"
    names = {track: f"rank{track}" for track in rows}
    name_w = max(len(name) for name in names.values())
    lines = []
    for track, spans in rows.items():
        row = ["."] * width
        busy = 0.0
        for t0, t1 in spans:
            a = int((t0 - lo) / total * width)
            b = max(a + 1, int((t1 - lo) / total * width))
            for col in range(a, min(b, width)):
                row[col] = "#"
            busy += t1 - t0
        lines.append(
            f"{names[track].ljust(name_w)} |{''.join(row)}| {busy / total:5.1%}"
        )
    return "\n".join(lines)
