"""Fig 5: measured repetition distance of each SPE execution group."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.hardware.spe_pipeline import CELL_BE_TABLE, POWERXCELL_8I_TABLE
from repro.units import GFLOPS
from repro.validation import paper_data


def test_fig5_repetition_distance(benchmark):
    fig5 = ARTIFACTS["fig5"]
    measured = benchmark(fig5.data)

    cbe = measured["Cell BE"]
    pxc = measured["PowerXCell 8i"]
    # Only the Cell BE's FPD unit is not fully pipelined.
    for g in cbe:
        assert pxc[g]["repetition"] == paper_data.FPD_REPETITION_PXC8I == 1
        if g != "FPD":
            assert cbe[g]["repetition"] == 1
    assert cbe["FPD"]["repetition"] == 7

    # The un-stalled FPD unit yields exactly the published peak rates.
    pxc_peak = 8 * POWERXCELL_8I_TABLE.dp_flops_per_cycle * 3.2e9
    cbe_peak = 8 * CELL_BE_TABLE.dp_flops_per_cycle * 3.2e9
    assert pxc_peak == pytest.approx(paper_data.PXC8I_SPE_PEAK_DP_GFLOPS * GFLOPS)
    assert cbe_peak == pytest.approx(
        paper_data.CELLBE_SPE_PEAK_DP_GFLOPS * GFLOPS, rel=0.01
    )

    emit(fig5.render(measured))
