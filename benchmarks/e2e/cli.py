"""The end-to-end benchmark command.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload fullmachine --seed 1 --seconds 20 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e --seed 1 --out results.json [--trace]

Each workload runs in fresh child processes (one closed-loop client;
the campaign workload adds its two pool workers): four set-up-only
children, then one measuring child, then, with ``--trace``, one traced
child.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (per-layer metrics
with ``--trace``); ``--out`` writes every sample, quartile and the run
manifest.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from . import child, metrics
from .workloads import WORKLOADS

__all__ = ["main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_PY = HERE / "run.py"
#: set-up samples per workload: set-up-only children plus the measuring one
SETUP_SAMPLES = 5
#: wall-clock budget of one workload, children included
DEADLINE_S = 170.0
#: environment of every child: one BLAS thread, fixed string hashing
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildError(RuntimeError):
    """A child process failed or ran past the deadline."""


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="End-to-end benchmark of the Roadrunner reproduction.")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.SPEC["run_seconds"]),
                        help="timed seconds per workload (default: BENCHMARK.json's "
                             f"run_seconds; at least {child.MIN_OPS} ops run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run one traced op and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for tests; results are not comparable")
    parser.add_argument("--out", type=Path, help="write the full result file here")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)
    return args


def _git_revision(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over the measured package's Python sources."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _manifest(args: argparse.Namespace, src: Path) -> dict[str, Any]:
    import numpy

    return {
        "revision": _git_revision(ROOT),
        "src_sha256": _source_digest(src),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "comparable": not args.quick,
        "child_env": CHILD_ENV,
        "load": "closed loop, one client; campaign adds 2 pool workers",
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }


class _Context:
    """Paths and environment shared by every child of one invocation."""

    def __init__(self, args: argparse.Namespace, src: Path):
        self.args = args
        self.src = src
        self.state = ROOT / ".bench_e2e"
        tmp = self.state / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, **CHILD_ENV,
                    "PYTHONPATH": os.fspath(src), "TMPDIR": os.fspath(tmp)}

    def trace_dir(self, name: str) -> Path:
        return self.state / "trace" / name

    def spawn(self, role: str, name: str, deadline: float):
        """Run one child; returns ``(setup seconds, ready, result)``."""
        args = self.args
        cmd = [sys.executable, os.fspath(RUN_PY), "--child", role, name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--src", os.fspath(self.src),
               "--workdir", os.fspath(self.state / "work" / f"{name}-{role}"),
               "--trace-dir", os.fspath(self.trace_dir(name))]
        if args.quick:
            cmd.append("--quick")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  stdout=subprocess.PIPE,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired as err:
            raise ChildError(f"{role} child of {name} ran past the deadline") from err
        messages = []
        for line in proc.stdout.splitlines():
            if line.startswith(child.TAG):
                messages.append(json.loads(line[len(child.TAG):]))
            else:
                print(line, file=sys.stderr)
        if proc.returncode != 0 or not messages:
            raise ChildError(f"{role} child of {name} exited {proc.returncode}")
        ready = messages[0]
        return ready["at"] - spawned, ready, messages[-1] if len(messages) > 1 else None


def _run_workload(name: str, ctx: _Context) -> dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    setup, inputs = [], set()
    for _ in range(SETUP_SAMPLES - 1):
        seconds, ready, _ = ctx.spawn("setup", name, deadline)
        setup.append(seconds)
        inputs.add(ready["inputs"])
    seconds, ready, measured = ctx.spawn("measure", name, deadline)
    setup.append(seconds)
    inputs.add(ready["inputs"])
    failures = list(measured["failures"])
    if len(inputs) != 1:
        failures.append("the same seed built different inputs")
    entry: dict[str, Any] = {"params": ready["params"], "inputs_sha256": ready["inputs"]}
    attempted, failed = measured["attempted"], measured["failed"]
    if not failures:
        entry["end_to_end"] = metrics.end_to_end(setup, measured)
    if ctx.args.trace:
        _, _, traced = ctx.spawn("trace", name, deadline)
        failures += traced["failures"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced.get("digest") != measured.get("digest"):
            failures.append("the traced op's outputs differ from the untraced ops'")
        if not failures:
            entry["per_layer"] = metrics.per_layer(measured, traced, ready["params"])
            entry["trace_files"] = [
                os.fspath((ctx.trace_dir(name) / f).relative_to(ROOT))
                for f in ("trace.json", "layers.json")]
    entry.update(correct=not failures, attempted=attempted, failed=failed,
                 failures=failures)
    entry["info"] = {
        "host_setup_samples": setup,
        "host_op_samples": measured["samples"],
        "calibration_samples": measured["calibration"],
        "warmup_s": measured.get("warmup_s"),
        "flux_err": measured.get("flux_err"),
        "fail_rate": failed / attempted if attempted else 0.0,
        "census": measured.get("census"),
        "extras": measured.get("extras"),
    }
    return entry


def _validate(src: Path) -> dict[str, int]:
    """The paper-claim checks, once per invocation."""
    sys.path.insert(0, os.fspath(src))
    from repro.validation.report import run_checks

    checks = run_checks()
    return {"passed": sum(c.passed for c in checks), "total": len(checks)}


def _print_table(name: str, entry: dict[str, Any], seed: int) -> None:
    status = "correct" if entry["correct"] else "FAILED"
    print(f"== {name} (seed {seed}): {status}, {entry['attempted']} ops "
          f"attempted, {entry['failed']} failed")
    for section in ("end_to_end", "per_layer"):
        for metric, m in entry.get(section, {}).items():
            spread = (f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
                      if "q1" in m else "")
            print(f"   {metric:34s} {m['value']:>14.6g} {m['unit']:9s}{spread}")
    for failure in entry["failures"]:
        print(f"   check failed: {failure.strip()}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child.main(argv[1:])
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    ctx = _Context(args, src)
    report: dict[str, Any] = {"format": 1, "manifest": _manifest(args, src),
                              "workloads": {}}
    try:
        for name in args.workload:
            report["workloads"][name] = _run_workload(name, ctx)
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    report["validate"] = _validate(src)
    validated = report["validate"]["passed"] == report["validate"]["total"]

    section = "per_layer" if args.trace else "end_to_end"
    single = len(args.workload) == 1
    line: dict[str, Any] = {
        "correct": validated and all(e["correct"] for e in report["workloads"].values()),
        "attempted": sum(e["attempted"] for e in report["workloads"].values()),
        "failed": sum(e["failed"] for e in report["workloads"].values()),
        "metrics": {},
    }
    for name, entry in report["workloads"].items():
        _print_table(name, entry, args.seed)
        for metric, m in entry.get(section, {}).items():
            key = metric if single else f"{name}.{metric}"
            line["metrics"][key] = {"value": m["value"], "unit": m["unit"]}
    v = report["validate"]
    print(f"== validate: {v['passed']}/{v['total']} claims PASS")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1
