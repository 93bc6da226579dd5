"""Fig 3: processing and memory capacities of a Roadrunner node."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.units import GIB, MIB, to_gflops
from repro.validation import paper_data


def test_fig3_node_breakdown(benchmark):
    fig3 = ARTIFACTS["fig3"]
    data = benchmark(fig3.data)
    flops, memory = data["flops_dp"], data["memory_bytes"]

    assert to_gflops(flops["SPEs"]) == pytest.approx(paper_data.NODE_SPE_DP_GFLOPS)
    assert to_gflops(flops["PPEs"]) == pytest.approx(paper_data.NODE_PPE_DP_GFLOPS)
    assert to_gflops(flops["Opterons"]) == pytest.approx(
        paper_data.NODE_OPTERON_PEAK_DP_GFLOPS
    )
    assert memory["Cell off-chip"] / GIB == pytest.approx(
        paper_data.NODE_CELL_OFFCHIP_GB
    )
    assert memory["Opteron off-chip"] / GIB == pytest.approx(
        paper_data.NODE_OPTERON_OFFCHIP_GB
    )
    assert memory["Cell on-chip"] / MIB == pytest.approx(paper_data.NODE_CELL_ONCHIP_MB)
    assert memory["Opteron on-chip"] / MIB == pytest.approx(
        paper_data.NODE_OPTERON_ONCHIP_MB
    )

    emit(fig3.render(data))
