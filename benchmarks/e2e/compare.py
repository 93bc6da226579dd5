"""Compare the result files of a parent commit and a change.

    python -m benchmarks.e2e.compare parent/*.json change/*.json

Each file is one ``--out`` result of the benchmark.  Files are grouped
by directory: the first file's directory holds the parent's runs, the
other directory the change's.  The i-th parent file (in name order) is
paired with the i-th change file, so name the runs in the order they
were made and alternate which side runs first.

For every workload and end-to-end metric the report gives each side's
median and quartiles over its runs, and a verdict:

``gain``
    the change wins at least 9 of every 10 pairs (ties count for
    neither, at least 10 pairs) and the medians differ by more than the
    parent's interquartile range;
``regression``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``unresolved``
    a side's spread (interquartile range over median) is wider than the
    bound, and not every change run beats every parent run;
``same``
    none of the above.

Per-layer metrics, when both sides were traced, are listed with their
medians and no verdict.  The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .metrics import SPEC
from .stats import quartiles, spread

__all__ = ["verdict", "main"]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> str:
    """The verdict for one metric; runs are paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        return "gain"
    if sign * (pm - cm) > bound * abs(pm):
        return "regression"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "same"


def _load(paths: list[Path]) -> tuple[list[dict], list[dict]]:
    dirs: list[Path] = []
    for path in paths:
        if path.parent not in dirs:
            dirs.append(path.parent)
    if len(dirs) != 2:
        raise SystemExit("give the parent's and the change's result files, "
                         "one directory per side")
    sides = []
    for d in dirs:
        files = sorted(p for p in paths if p.parent == d)
        sides.append([json.loads(p.read_text()) for p in files])
    return sides[0], sides[1]


def _values(runs: list[dict], workload: str, section: str, metric: str) -> list[float]:
    return [run["workloads"][workload][section][metric]["value"] for run in runs
            if metric in run["workloads"].get(workload, {}).get(section, {})]


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.6g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.compare")
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    parent, change = _load(args.files)
    if any(run["manifest"]["quick"] for run in parent + change):
        print("warning: --quick results are not comparable", file=sys.stderr)
    regressed = False
    workloads = [w["name"] for w in SPEC["workloads"]]
    print(f"parent: {len(parent)} runs, change: {len(change)} runs")
    for workload in workloads:
        print(f"== {workload}")
        for m in SPEC["end_to_end"]:
            p = _values(parent, workload, "end_to_end", m["name"])
            c = _values(change, workload, "end_to_end", m["name"])
            if not p or not c:
                continue
            v = verdict(p, c, m["bound"], m["better"])
            regressed |= v == "regression"
            print(f"   {m['name']:14s} {m['unit']:9s} parent {_fmt(p)}  "
                  f"change {_fmt(c)}  {v}")
        for m in SPEC["per_layer"]:
            p = _values(parent, workload, "per_layer", m["name"])
            c = _values(change, workload, "per_layer", m["name"])
            if p and c:
                print(f"   {m['name']:34s} parent {_fmt(p)}  change {_fmt(c)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
