"""Entry point: ``python3 benchmarks/e2e/run.py --workload W --seed N
--seconds S --trace 0|1`` from the repository root.

Loads this directory as a private package named ``e2e`` so the
benchmark imports nothing from the rest of ``benchmarks/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path


def _load_cli():
    here = Path(__file__).resolve().parent
    if sys.path and Path(sys.path[0]).resolve() == here:
        # keep this directory's module names (stats, cli, ...) off the path
        sys.path.pop(0)
    spec = importlib.util.spec_from_file_location(
        "e2e", here / "__init__.py", submodule_search_locations=[str(here)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["e2e"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("e2e.cli")


if __name__ == "__main__":
    sys.exit(_load_cli().main())
