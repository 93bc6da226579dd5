"""Every example prints exactly what it printed when the fixture was
recorded.

``tests/fixtures/examples_stdout.json`` maps each ``examples/*.py``
script to its stdout.  The examples are deterministic and print no host
time or path, so a change that moves any printed byte fails here.

To regenerate the fixture after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_examples.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
FIXTURE = Path(__file__).parent / "fixtures" / "examples_stdout.json"
SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py"))


def _run(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(EXAMPLES / script)],
                          capture_output=True, text=True, env=env,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.fixture(scope="module")
def recorded():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        payload = {script: _run(script) for script in SCRIPTS}
        FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {FIXTURE}")
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_example(recorded):
    assert sorted(recorded) == SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_stdout_is_unchanged(script, recorded):
    assert _run(script) == recorded[script]
