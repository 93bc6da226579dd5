"""Table II: performance characteristics of Roadrunner."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_table2_characteristics(benchmark):
    table2 = ARTIFACTS["table2"]
    chars = benchmark(table2.data)

    assert chars["cu_count"] == paper_data.CU_COUNT
    assert chars["node_count"] == paper_data.NODE_COUNT
    assert chars["peak_dp_pflops"] == pytest.approx(
        paper_data.PEAK_DP_PFLOPS, rel=0.005
    )
    assert chars["peak_sp_pflops"] == pytest.approx(
        paper_data.PEAK_SP_PFLOPS, rel=0.005
    )
    assert chars["cu_peak_dp_tflops"] == pytest.approx(
        paper_data.CU_PEAK_DP_TFLOPS, rel=0.002
    )
    assert chars["node_cell_peak_dp_gflops"] == pytest.approx(
        paper_data.NODE_CELL_PEAK_DP_GFLOPS
    )
    assert chars["node_opteron_peak_dp_gflops"] == pytest.approx(
        paper_data.NODE_OPTERON_PEAK_DP_GFLOPS
    )

    emit(table2.render(chars))
