"""Command-line interface: regenerate any reproduced table or figure.

    python -m repro list              # what can be produced
    python -m repro table1            # print Table I
    python -m repro fig13 fig14       # several at once
    python -m repro all               # everything
    python -m repro profile sweep16   # sim-time profile of a canned run
    python -m repro campaign sweep    # seed-sweep through the job service

Subcommands with their own option surfaces register in
:data:`SUBCOMMANDS`; anything else is an artifact name for the default
reproduction command.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.core.artifacts import ARTIFACTS, available, lookup

__all__ = ["main", "SUBCOMMANDS", "register_subcommand"]

#: the subcommand table: name -> (runner(argv) -> exit code, help line).
#: Dispatch happens on ``argv[0]`` before the artifact parser runs, so
#: each subcommand owns its full option surface.
SUBCOMMANDS: dict[str, tuple[Callable[[list[str]], int], str]] = {}


def register_subcommand(
    name: str, runner: Callable[[list[str]], int], help_text: str
) -> None:
    """Register ``name`` in the dispatch table (idempotent per name)."""
    SUBCOMMANDS[name] = (runner, help_text)


def _subcommand_epilog() -> str:
    if not SUBCOMMANDS:
        return ""
    width = max(len(name) for name in SUBCOMMANDS)
    lines = [
        f"  {name.ljust(width)}  {help_text}"
        for name, (_runner, help_text) in sorted(SUBCOMMANDS.items())
    ]
    return (
        "subcommands (each takes its own options; try "
        "'python -m repro <subcommand> --help'):\n" + "\n".join(lines)
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the tables and figures of 'Entering the Petaflop "
            "Era: The Architecture and Performance of Roadrunner' (SC 2008)"
        ),
        epilog=_subcommand_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        metavar="ARTIFACT",
        help="'list', 'all', 'validate', or any of: " + ", ".join(sorted(ARTIFACTS)),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of formatted text",
    )
    return parser


def _profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description=(
            "Run a canned scenario with the observability recorder "
            "attached and print its sim-time profile"
        ),
    )
    from repro.obs.scenarios import SCENARIOS

    parser.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        help="which canned simulation to profile",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="also write a Chrome trace_event JSON file (Perfetto-loadable); "
             "keeps every span in memory, so the full-machine scenarios "
             "cost several times their usual memory",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary instead of tables",
    )
    return parser


def _profile_main(argv: list[str]) -> int:
    """The ``profile`` subcommand: run a scenario, print its profile."""
    args = _profile_parser().parse_args(argv)
    from repro.obs import (
        ObsRecorder,
        format_profile,
        profile,
        run_scenario,
        to_summary,
        write_chrome_trace,
    )

    # A trace needs every span: no streaming sink, which would drop
    # each flushed batch before the trace is written.
    rec, sim_time = run_scenario(
        args.scenario, obs=ObsRecorder() if args.trace else None
    )
    if args.trace:
        write_chrome_trace(rec, args.trace)
    if args.json:
        import json

        print(json.dumps(to_summary(rec, sim_time), indent=2, sort_keys=True))
    else:
        print(format_profile(
            profile(rec, sim_time), title=f"scenario: {args.scenario}"
        ))
        if args.trace:
            print(f"\nChrome trace written to {args.trace}")
    return 0


def _campaign_main(argv: list[str]) -> int:
    """The ``campaign`` subcommand (lazy import: the service pulls in
    the worker pool and store only when actually used)."""
    from repro.campaign.cli import main as campaign_main

    return campaign_main(argv)


def _perftest_main(argv: list[str]) -> int:
    """The ``perftest`` subcommand: the declarative perf/scaling test
    runner.  The suites live under ``benchmarks/`` next to the package
    tree, which is not importable from an installed ``repro`` alone —
    put the repo root on ``sys.path`` when it is present."""
    try:
        import benchmarks.framework  # noqa: F401
    except ImportError:
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        if not (repo_root / "benchmarks" / "framework").is_dir():
            print(
                "perftest needs the repository checkout (benchmarks/ "
                "not found next to src/)",
                file=sys.stderr,
            )
            return 2
        sys.path.insert(0, str(repo_root))
    from benchmarks.framework.cli import main as perftest_main

    return perftest_main(argv)


register_subcommand(
    "profile", _profile_main,
    "run a canned scenario under the obs recorder and print its profile",
)
register_subcommand(
    "perftest", _perftest_main,
    "run the declarative perf/scaling test suites (smoke or measured tier)",
)
register_subcommand(
    "campaign", _campaign_main,
    "submit a campaign of cached, deterministic jobs to the worker pool",
)


def _close_stdout() -> None:
    """Quietly close a stdout whose reader (a pager, ``head``) has gone."""
    import os

    try:
        sys.stdout.close()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        runner, _help = SUBCOMMANDS[argv[0]]
        try:
            return runner(list(argv[1:]))
        except BrokenPipeError:
            _close_stdout()
            return 0
    args = _build_parser().parse_args(argv)
    requested = list(args.artifacts)
    known = {*ARTIFACTS, "all", "validate"} | (set() if args.json else {"list"})
    unknown = [n for n in requested if n not in known]
    if unknown:
        if args.json:
            print(f"no JSON producer for: {', '.join(unknown)}", file=sys.stderr)
        else:
            print(
                f"unknown artifact(s): {', '.join(unknown)}; "
                f"try 'python -m repro list'",
                file=sys.stderr,
            )
        return 2

    if "list" in requested:
        width = max(len(name) for name, _ in available())
        for name, desc in [*available(), ("validate", lookup("validate").description)]:
            print(f"{name.ljust(width)}  {desc}")
        return 0

    if "all" in requested:
        # fig4 and fig5 share a producer; emit it once.
        requested = [n for n in ARTIFACTS if n != "fig5"]
        if args.json or "validate" in args.artifacts:
            # --json all has always carried the claim report.
            requested.append("validate")

    failed = False
    payload = {}
    try:
        for i, name in enumerate(requested):
            artifact = lookup(name)
            data = artifact.data()
            if name == "validate":
                failed = data["passed"] < data["total"]
            if args.json:
                payload[name] = data
                continue
            if i:
                print()
            print(artifact.render(data))
        if args.json:
            import json

            if len(requested) == 1:
                payload = payload[name]
            print(json.dumps(payload, indent=2, sort_keys=True))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: not an error.
        _close_stdout()
    return 1 if failed else 0
