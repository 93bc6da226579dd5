"""Fig 6: zero-byte latency breakdown of a Cell-to-Cell internode
message along the Cell-Opteron-Opteron-Cell path."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_fig6_latency_breakdown(benchmark):
    fig6 = ARTIFACTS["fig6"]
    data = benchmark(fig6.data)

    legs_us = [leg["latency_us"] for leg in data["legs_us"]]
    assert legs_us == pytest.approx([0.12, 3.19, 2.16, 3.19, 0.12])
    assert data["total_us"] == pytest.approx(
        paper_data.CELL_TO_CELL_INTERNODE_LATENCY_US, abs=0.01
    )

    emit(fig6.render(data))
