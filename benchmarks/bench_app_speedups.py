"""§IV-A: application speedups on the PowerXCell 8i vs the Cell BE,
derived from the SPE pipeline tables."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_app_speedups(benchmark):
    apps = ARTIFACTS["apps"]
    speedups = benchmark(apps.data)

    assert speedups["VPIC"] == pytest.approx(paper_data.APP_SPEEDUP_VPIC, rel=0.02)
    assert speedups["SPaSM"] == pytest.approx(paper_data.APP_SPEEDUP_SPASM, rel=0.05)
    assert speedups["Milagro"] == pytest.approx(
        paper_data.APP_SPEEDUP_MILAGRO, rel=0.05
    )
    assert speedups["Sweep3D"] == pytest.approx(
        paper_data.APP_SPEEDUP_SWEEP3D, rel=0.05
    )

    emit(apps.render(speedups))
