"""How each metric is computed from a run's raw data.

Names, units and directions come from ``BENCHMARK.json`` (:data:`SPEC`);
this module only computes values.  Every end-to-end metric is reported
on every workload, and every per-layer metric is reported on every
workload too: a layer the workload never enters reads exactly zero,
which is itself the check that the workload bypasses it.

``op_s`` and ``events_per_s`` are in reference seconds (unit ``ref_s``,
see :mod:`.calibrate`); every other time is host time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .calibrate import REFERENCE_S
from .stats import median, quartiles, summarize

__all__ = ["SPEC", "end_to_end", "per_layer"]

#: the repository's ``BENCHMARK.json``
SPEC: dict[str, Any] = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _events(census: dict[str, float]) -> float:
    """Logical events: engine dispatches plus cohort-batched deliveries."""
    return census["dispatches"] + census["batched"]


def end_to_end(setup_samples: list[float], measured: dict[str, Any]) -> dict[str, dict]:
    """Median, quartiles and sample count of each end-to-end metric."""
    scale = REFERENCE_S / median(measured["calibration"])
    ops = [s * scale for s in measured["samples"]]
    events = _events(measured["census"])
    q1, mid, q3 = quartiles(ops)
    values = {
        "setup_s": summarize(setup_samples),
        "op_s": summarize(ops),
        "events_per_s": {"value": events / mid, "q1": events / q3,
                         "q3": events / q1, "n": len(ops)},
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "n": 1},
    }
    return {m["name"]: {**values[m["name"]], "unit": m["unit"]}
            for m in SPEC["end_to_end"]}


def per_layer(measured: dict[str, Any], traced: dict[str, Any],
              params: dict[str, Any]) -> dict[str, dict]:
    """Per-layer metrics of the traced op, with the untraced run's census."""
    layers, calls = traced["layers"], traced["callables"]
    census, extras = measured["census"], measured["extras"]

    def called(prefix: str, field: str = "calls") -> float:
        return float(sum(v[field] for k, v in calls.items() if k.startswith(prefix)))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_op(key: str) -> float:
        return median(extras[key]) if key in extras else 0.0

    kernel_calls = called("sweep3d.kernel")
    kernel_s = called("sweep3d.kernel", "busy_s")
    cell_angles = float(traced["cell_angles"])
    jobs = params.get("jobs", 0)
    extra = traced["extra"]
    values = {
        "sim.run_s": layers["sim"]["busy_s"],
        "sim.self_s": layers["sim"]["self_s"],
        "sim.dispatches": census["dispatches"],
        "sim.ns_per_dispatch": ratio(layers["sim"]["self_s"] * 1e9, census["dispatches"]),
        "comm.calls": float(layers["comm"]["calls"]),
        "comm.steps": float(layers["comm"]["spans"]),
        "comm.busy_s": layers["comm"]["busy_s"],
        "comm.self_s": layers["comm"]["self_s"],
        "comm.messages": census["messages"],
        "comm.bytes": census["bytes"],
        "comm.batched_deliveries": census["batched"],
        "comm.batch_ratio": ratio(census["batched"], census["messages"]),
        "network.transfers": called("network.ContendedFabric.transfer"),
        "network.link_transfers": called("network.BandwidthLink.transfer"),
        "network.busy_s": layers["network"]["busy_s"],
        "network.self_s": layers["network"]["self_s"],
        "sweep3d.kernel.calls": kernel_calls,
        "sweep3d.kernel.busy_s": kernel_s,
        "sweep3d.kernel.us_per_call": ratio(kernel_s * 1e6, kernel_calls),
        "sweep3d.kernel.cell_angles": cell_angles,
        "sweep3d.kernel.ns_per_cell_angle": ratio(kernel_s * 1e9, cell_angles),
        "sweep3d.solve.iterations": per_op("iterations"),
        "sweep3d.flux_err": measured["flux_err"],
        "obs.spans": census["spans"],
        "obs.calls": float(layers["obs"]["calls"]),
        "obs.busy_s": layers["obs"]["busy_s"],
        "obs.self_s": layers["obs"]["self_s"],
        "obs.sink_s": called("obs.AggregatingSink.consume", "busy_s"),
        "campaign.store.puts": called("campaign.ArtifactStore.put"),
        "campaign.store.put_s": called("campaign.ArtifactStore.put", "busy_s"),
        "campaign.store.gets": called("campaign.ArtifactStore.get"),
        "campaign.store.get_s": called("campaign.ArtifactStore.get", "busy_s"),
        "campaign.store.hit_ratio": ratio(extra.get("store_hits", 0.0),
                                          extra.get("store_gets", 0.0)),
        "campaign.journal.records": called("campaign.Journal."),
        "campaign.journal.append_s": called("campaign.Journal.", "busy_s"),
        "campaign.job.exec_s": extra.get("job_exec_s", 0.0),
        "campaign.job.wait_s": extra.get("job_wait_s", 0.0),
        "campaign.cold_jobs_per_s": ratio(jobs, per_op("cold_s")),
        "campaign.warm_jobs_per_s": ratio(jobs, per_op("warm_s")),
        "trace.overhead": ratio(traced["traced_s"], median(measured["samples"])),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]}
