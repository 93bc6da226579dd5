"""Fig 4: measured latency of each SPE execution group, CBE vs PXC8i."""

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_fig4_instruction_latency(benchmark):
    fig4 = ARTIFACTS["fig4"]
    measured = benchmark(fig4.data)

    cbe = measured["Cell BE"]
    pxc = measured["PowerXCell 8i"]
    # Only FPD differs; 13 -> 9 cycles.
    assert cbe["FPD"]["latency"] == paper_data.FPD_LATENCY_CELLBE
    assert pxc["FPD"]["latency"] == paper_data.FPD_LATENCY_PXC8I
    for g in cbe:
        if g != "FPD":
            assert cbe[g]["latency"] == pxc[g]["latency"]

    emit(fig4.render(measured))
