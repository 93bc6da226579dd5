"""``python -m repro campaign`` — the service's command-line client.

Submit a seed-sweep campaign for any registered scenario, stream
progress to the console (or as JSON-lines for machine consumers), and
print / write the campaign report::

    python -m repro campaign --list
    python -m repro campaign sweep --seeds 8 --workers 4
    python -m repro campaign sweep3060 --seeds 2 --cache-dir ~/.repro-cache
    python -m repro campaign placement-penalty --seeds 100 --workers 4 \\
        --cache-dir .campaign-cache --report campaign-report.json
    python -m repro campaign sweep --seeds 4 --set drop_probability=0.05 --jsonl

Re-running an identical invocation against the same ``--cache-dir``
performs zero simulations: every job streams ``cached-hit``.

Durability: ``--journal PATH`` (requires ``--cache-dir``) write-ahead
logs every job-state transition; if the campaign process dies,
``--resume PATH`` finishes it — done jobs are restored from the cache,
never recomputed, and the final report matches an uninterrupted run
byte for byte.  ``--timeout S`` fails a job after S host seconds and
``--max-retries K`` bounds the retries of a job whose worker died, at
any ``--workers`` count.  Bad pool arguments exit 2 before any job
runs::

    python -m repro campaign sweep --seeds 100 --workers 4 --timeout 60 \\
        --cache-dir .campaign-cache --journal sweep.journal
    python -m repro campaign --resume sweep.journal --report report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable

from repro.campaign.jobs import DONE
from repro.campaign.journal import read_journal
from repro.campaign.scenarios import public_scenarios
from repro.campaign.service import CampaignService, ProgressEvent, grid

__all__ = ["main"]


def _parse_set(pairs: list[str]) -> dict[str, Any]:
    """``--set key=value`` overrides, values parsed as JSON when they
    are (so ``--set drop_probability=0.05`` is a float and
    ``--set observe=true`` a bool), strings otherwise."""
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(value)
        except ValueError:
            overrides[key] = value
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Submit a campaign of deterministic simulation jobs to the "
            "worker pool, with content-addressed artifact caching"
        ),
    )
    parser.add_argument("scenario", nargs="?",
                        help="registered scenario (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--seeds", type=int, default=4,
                        help="seed-sweep width: jobs run seeds 0..N-1 (default 4)")
    parser.add_argument("--first-seed", type=int, default=0,
                        help="first seed of the sweep (default 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="artifact cache directory (default: no cache)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in host seconds")
    parser.add_argument("--max-retries", type=int, default=1,
                        help="extra attempts after a worker crash (default 1)")
    parser.add_argument("--journal", metavar="PATH",
                        help="write-ahead journal for this run "
                             "(requires --cache-dir)")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume a journaled campaign that died "
                             "(exclusive with a scenario)")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a scenario config key (repeatable)")
    parser.add_argument("--jsonl", action="store_true",
                        help="stream progress events as JSON-lines")
    parser.add_argument("--report", metavar="PATH",
                        help="write the full campaign report JSON to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress lines")
    return parser


def _list_scenarios() -> None:
    defs = public_scenarios()
    width = max(len(s.name) for s in defs)
    for s in defs:
        print(f"{s.name.ljust(width)}  {s.help}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list:
        _list_scenarios()
        return 0
    if args.resume:
        return _resume(args)
    if args.journal and not args.cache_dir:
        print("--journal requires --cache-dir (the journal records "
              "artifact hashes, the cache holds the bytes)", file=sys.stderr)
        return 2
    if not args.scenario:
        print("a scenario is required (see --list)", file=sys.stderr)
        return 2
    public = [s.name for s in public_scenarios()]
    if args.scenario not in public:
        print(f"unknown scenario {args.scenario!r}; "
              f"choose from {', '.join(public)}", file=sys.stderr)
        return 2
    try:
        specs = grid(
            args.scenario,
            range(args.first_seed, args.first_seed + args.seeds),
            _parse_set(args.overrides),
        )
        service = CampaignService(
            args.cache_dir, workers=args.workers, timeout=args.timeout,
            max_retries=args.max_retries,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    banner = (f"campaign: {args.scenario} x {len(specs)} seed(s), "
              f"{args.workers} worker(s)"
              + (f", cache {args.cache_dir}" if args.cache_dir else ""))
    return _run_and_report(
        args, len(specs), banner,
        lambda progress: service.run(specs, progress=progress,
                                     journal=args.journal),
    )


def _resume(args) -> int:
    """``--resume PATH``: finish a journaled campaign after a crash."""
    if args.scenario:
        print("--resume is exclusive with a scenario argument",
              file=sys.stderr)
        return 2
    try:
        state = read_journal(args.resume)
    except (OSError, ValueError) as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    summary = state.summary()
    banner = (f"resuming campaign from {args.resume}: {len(state.specs)} "
              f"job(s) ({summary['done']} done, {summary['failed']} failed, "
              f"{summary['running']} in flight, "
              f"{summary['pending']} pending)")
    return _run_and_report(
        args, len(state.specs), banner,
        lambda progress: CampaignService.resume(args.resume,
                                                progress=progress),
    )


def _printer(args, total: int) -> Callable[[ProgressEvent], None] | None:
    """The progress callback: JSON-lines, one console line per outcome,
    or nothing (``--quiet``)."""
    if args.jsonl:
        return lambda event: print(json.dumps(event.to_dict(), sort_keys=True))
    if args.quiet:
        return None

    def console(event: ProgressEvent) -> None:
        if event.event == "queued":
            return  # one line per outcome keeps 100-seed runs readable
        extra = ""
        if event.event == "failed":
            extra = f"  {event.detail.get('error', '')}"
        print(f"  [{event.index + 1}/{total}] "
              f"{event.event:<10} {event.digest[:12]}  seed {event.seed}"
              f"{extra}")

    return console


def _run_and_report(args, total: int, banner: str,
                    run: Callable[[Any], Any]) -> int:
    """The one finish path: stream progress while ``run(progress)``
    executes the campaign, then write and summarize its report."""
    progress = _printer(args, total)
    if not args.jsonl:
        print(banner)
    t0 = time.monotonic()
    report = run(progress)
    elapsed = time.monotonic() - t0
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    if not args.jsonl:
        print(f"done in {elapsed:.2f} s: {report.submitted} job(s), "
              f"{report.cached_hits} cached, {report.executed} executed, "
              f"{report.failed} failed")
        _print_aggregate(report)
        if args.report:
            print(f"report written to {args.report}")
    return 1 if report.failed else 0


def _print_aggregate(report) -> None:
    """min/mean/max over every numeric key all done artifacts share."""
    arts = [o.artifact for o in report.outcomes
            if o.state == DONE and o.artifact]
    if not arts:
        return
    keys = set(arts[0])
    for art in arts[1:]:
        keys &= set(art)
    rows = []
    for key in sorted(keys):
        values = [art[key] for art in arts]
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values
        ):
            continue
        rows.append((key, min(values), sum(values) / len(values), max(values)))
    if rows:
        print("aggregate over done jobs:")
        for key, lo, mean, hi in rows:
            print(f"  {key}: min {lo:.6g}  mean {mean:.6g}  max {hi:.6g}")


if __name__ == "__main__":
    sys.exit(main())
