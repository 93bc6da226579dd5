"""One workload in a fresh process: set-up, warm-up, timed ops, checks.

The parent starts this module three ways:

``setup``
    build the workload, report readiness, exit (extra set-up samples);
``measure``
    build, warm up with the counting op, run untraced timed ops for the
    requested seconds (at least :data:`MIN_OPS`), then run the once-per-
    run checks;
``trace``
    build, warm up untraced, then run one op under the tracer and write
    ``trace.json`` and ``layers.json``.

The measuring role times the calibration loop (:mod:`.calibrate`)
before the warm-up and after every op.

Messages to the parent are stdout lines prefixed with :data:`TAG`.
Readiness carries a ``time.monotonic()`` reading, which on Linux is the
system-wide CLOCK_MONOTONIC, so the parent subtracts its own reading at
spawn to get set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from .calibrate import calibrate
from .tracer import Tracer, traced
from .workloads import WORKLOADS

__all__ = ["TAG", "MIN_OPS", "main"]

TAG = "@e2e "
#: timed ops per run even when they outlast ``--seconds``
MIN_OPS = 3


def _emit(message: dict) -> None:
    sys.stdout.write(TAG + json.dumps(message) + "\n")
    sys.stdout.flush()


class _Run:
    """Counts ops and collects failed checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, counting: bool = False, tracer: Tracer | None = None):
        """One op: ``(seconds, outcome)``; checks run after the timer."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                raw = self.workload.op(counting)
                seconds = time.perf_counter() - t0
            else:
                with traced(tracer):
                    t0 = time.perf_counter()
                    raw = self.workload.op(counting)
                    seconds = time.perf_counter() - t0
            outcome = self.workload.evaluate(raw)
        except Exception:
            self.failed += 1
            raise
        if outcome.failures:
            self.failed += 1
            self.failures.extend(outcome.failures)
        return seconds, outcome

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def _measure(workload, seconds: float) -> dict:
    run = _Run(workload)
    calibration = [calibrate()]
    result: dict = {"samples": [], "extras": {}, "census": None,
                    "calibration": calibration}
    try:
        result["warmup_s"], warm = run.op(counting=True)
        result["census"] = warm.census
        calibration.append(calibrate())
        digests = set()
        start = time.perf_counter()
        while (len(result["samples"]) < MIN_OPS
               or time.perf_counter() - start < seconds):
            op_s, outcome = run.op()
            calibration.append(calibrate())
            result["samples"].append(op_s)
            digests.add(outcome.digest)
            for key, value in outcome.extra.items():
                result["extras"].setdefault(key, []).append(value)
        # ru_maxrss is KiB on Linux; read before the once-per-run checks
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        if len(digests) != 1:
            run.failures.append(f"timed ops disagree: {len(digests)} digests")
        result["digest"] = digests.pop()
        run.failures.extend(workload.final_check())
    except Exception:
        run.failures.append(traceback.format_exc())
    result["flux_err"] = workload.flux_err
    return {**result, **run.report()}


def _trace(workload, trace_dir: Path) -> dict:
    run = _Run(workload)
    result: dict = {}
    try:
        run.op()
        tracer = Tracer()
        result["traced_s"], outcome = run.op(tracer=tracer)
        result.update(digest=outcome.digest, extra=outcome.extra,
                      layers=tracer.layers(), callables=tracer.by_name(),
                      cell_angles=tracer.cell_angles)
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / "trace.json", trace_dir / "layers.json")
    except Exception:
        run.failures.append(traceback.format_exc())
    return {**result, **run.report()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="e2e child")
    parser.add_argument("role", choices=("setup", "measure", "trace"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    import repro

    if args.src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {args.src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.quick,
                                        os.fspath(args.workdir))
    try:
        _emit({"event": "ready", "at": time.monotonic(),
               "params": workload.params, "inputs": workload.inputs_digest()})
        if args.role == "measure":
            _emit({"event": "result", **_measure(workload, args.seconds)})
        elif args.role == "trace":
            _emit({"event": "result", **_trace(workload, args.trace_dir)})
    finally:
        workload.close()
    return 0
