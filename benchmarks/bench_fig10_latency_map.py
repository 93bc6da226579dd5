"""Fig 10: zero-byte latency from MPI rank 0 to all 3,059 other nodes."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_fig10_latency_map(benchmark):
    fig10 = ARTIFACTS["fig10"]
    data = benchmark(fig10.data)
    series = data["latency_us_by_node"]

    assert len(series) == 3060
    # The staircase levels of the figure.
    assert series[1] == pytest.approx(paper_data.MPI_MIN_LATENCY_US, rel=0.02)
    assert series[100] == pytest.approx(paper_data.MPI_SAME_CU_LATENCY_US, rel=0.03)
    assert series[250] == pytest.approx(paper_data.MPI_5HOP_LATENCY_US, rel=0.04)
    assert 3.7 <= series[2300] < paper_data.MPI_7HOP_LATENCY_US
    # Periodic dips: the first crossbar of every near-side CU is 3 hops.
    for cu in range(1, 12):
        assert series[cu * 180] < series[cu * 180 + 20]

    emit(fig10.render(data))
