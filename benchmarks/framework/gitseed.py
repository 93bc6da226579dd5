"""Honest baselines: load pre-optimization modules from the seed commit.

The recorded speedups compare against the real pre-PR code on the same
machine, same Python, same moment — not against a number typed into a
file.  Without git history a test skips its baseline leg; a seed file
that exists but fails to load is an error, never a silent skip.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

__all__ = ["REPO_ROOT", "seed_commit", "load_seed_module", "load_seed_engine"]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def seed_commit() -> str | None:
    """The repository's root (seed) commit, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-list", "--max-parents=0", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    commits = out.stdout.split()
    return commits[0] if commits else None


def _git_show(commit: str, relpath: str) -> str | None:
    """The text of ``relpath`` at ``commit``; None when git or the file
    is unavailable."""
    try:
        out = subprocess.run(
            ["git", "show", f"{commit}:{relpath}"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0 or not out.stdout:
        return None
    return out.stdout


def load_seed_module(relpath: str, module_name: str):
    """A module from the seed commit, executed against the *current*
    package tree (its ``repro.*`` imports resolve normally).  None when
    git history or the seed file is unavailable; any error while
    executing it raises."""
    commit = seed_commit()
    if commit is None:
        return None
    source = _git_show(commit, relpath)
    if source is None:
        return None
    spec = importlib.util.spec_from_loader(module_name, loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__dict__["__file__"] = f"<git:{commit[:12]}:{relpath}>"
    # Registered before exec: @dataclass resolves string annotations via
    # ``sys.modules[cls.__module__]`` while the class body executes.
    sys.modules[module_name] = module
    try:
        exec(compile(source, module.__dict__["__file__"], "exec"), module.__dict__)
    except BaseException:
        del sys.modules[module_name]
        raise
    return module


def load_seed_engine():
    """The pre-PR ``repro.sim.engine`` module, loaded from the seed
    commit; None when git history is unavailable."""
    return load_seed_module("src/repro/sim/engine.py", "_seed_sim_engine")
