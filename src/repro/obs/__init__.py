"""Structured observability for the simulator.

``repro.obs`` records what a simulation *did* — spans (simulated-time
intervals per rank / link), instant events (retries, faults),
counters and gauges, and engine statistics —
and turns the record into per-rank, per-phase, per-link attributions and
exportable traces:

* :mod:`repro.obs.recorder` — the :class:`ObsRecorder` sink and the
  ``obs=None`` zero-overhead convention every instrumented layer follows;
* :mod:`repro.obs.profiler` — sim-time attribution (compute /
  recv-wait / send / collective / other / idle per rank; busy time and
  utilization per link; host wall-clock per process);
* :mod:`repro.obs.export` — JSON summaries, Chrome ``trace_event``
  files (Perfetto-loadable), the text profile tables and Gantt charts;
* :mod:`repro.obs.scenarios` — the canned runs behind
  ``python -m repro profile <scenario>``.
"""

from repro.obs.export import (
    SUMMARY_RANK_FIELDS,
    SUMMARY_SCHEMA,
    counter_snapshot,
    deterministic_summary,
    format_gantt,
    format_profile,
    phase_fractions,
    span_stream,
    to_chrome_trace,
    to_summary,
    write_chrome_trace,
)
from repro.obs.profiler import (
    CATEGORY_PHASE,
    PHASES,
    LinkProfile,
    RankProfile,
    SimProfile,
    link_occupancy,
    phase_breakdown,
    profile,
    self_times,
)
from repro.obs.recorder import ObsRecorder, SpanRecord
from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.obs.sinks import AggregatingSink

__all__ = [
    "AggregatingSink",
    "ObsRecorder",
    "SpanRecord",
    "PHASES",
    "CATEGORY_PHASE",
    "RankProfile",
    "LinkProfile",
    "SimProfile",
    "self_times",
    "phase_breakdown",
    "link_occupancy",
    "profile",
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
    "SCENARIOS",
    "run_scenario",
]
