"""Shared fixtures for the benchmark harness.

Each paper bench in this directory times one registered artifact's
``data()`` (:mod:`repro.core.artifacts`) with pytest-benchmark, checks
that data against the published values in
:mod:`repro.validation.paper_data`, and prints the artifact's text
(visible with ``pytest benchmarks/ --benchmark-only -s``).  The
ablation, extension and DES benches check models the registry does not
hold.
"""

import pytest

from repro.network.topology import RoadrunnerTopology


def pytest_addoption(parser):
    parser.addoption(
        "--perf-full",
        action="store_true",
        default=False,
        help=(
            "run the measured tier of benchmarks/perf (timed comparisons "
            "against the pre-optimization baselines, writes BENCH_perf.json); "
            "without it only the fast smoke tier runs"
        ),
    )


@pytest.fixture
def perf_full(request):
    """Gate for the measured perf tier: skip unless --perf-full."""
    if not request.config.getoption("--perf-full"):
        pytest.skip("measured perf tier: pass --perf-full to run")
    return True


@pytest.fixture(scope="session")
def topology():
    """The full fabric, built once."""
    return RoadrunnerTopology(cu_count=17)


def emit(text: str) -> None:
    """Print a reproduced table/series under a separator."""
    print()
    print(text)
