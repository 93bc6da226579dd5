"""numpy is the only runtime dependency: the CLI and the failure study
(the degraded-fabric searches) run with networkx and scipy unimportable."""

import pathlib
import subprocess
import sys

import pytest

FAILURE_STUDY = (
    pathlib.Path(__file__).resolve().parent.parent / "examples" / "failure_study.py"
)

#: a ``None`` entry in ``sys.modules`` makes any import of that name raise
GUARD = "import runpy, sys\nsys.modules['networkx'] = sys.modules['scipy'] = None\n"


@pytest.mark.parametrize(
    "run",
    [
        "sys.argv = ['repro', 'all']; runpy.run_module('repro', run_name='__main__')",
        f"sys.argv = [{str(FAILURE_STUDY)!r}]; "
        "runpy.run_path(sys.argv[0], run_name='__main__')",
    ],
    ids=["repro-all", "failure-study"],
)
def test_runs_with_networkx_and_scipy_unimportable(run):
    proc = subprocess.run(
        [sys.executable, "-c", GUARD + run],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
