"""Fig 14: performance improvement of accelerated over non-accelerated
Sweep3D, measured and best-achievable."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_fig14_improvement(benchmark):
    fig14 = ARTIFACTS["fig14"]
    improvements = benchmark(fig14.data)

    measured = improvements["measured"]
    best = improvements["best"]

    # Paper: ~2x measured at full scale; up to ~4x with peak PCIe;
    # ~10x projected at small scale (§VII).
    assert measured[-1] == pytest.approx(
        paper_data.FIG14_MEASURED_IMPROVEMENT_LARGE, rel=0.2
    )
    assert 2.8 < best[-1] < 5.0
    assert 6.0 < best[0] < 11.0
    # Best dominates measured everywhere; both trend down with scale.
    assert all(b >= m for b, m in zip(best, measured))
    assert measured[-1] < 0.5 * measured[0]
    assert best[-1] < 0.5 * best[0]

    emit(fig14.render(improvements))
