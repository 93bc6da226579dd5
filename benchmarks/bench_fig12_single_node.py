"""Fig 12: Sweep3D iteration time on single cores and single sockets of
the dual-core Opteron, quad-core Opteron, Tigerton, and PowerXCell 8i."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.hardware.opteron import OPTERON_2210_HE, OPTERON_QUAD_2356, TIGERTON_X7350
from repro.validation import paper_data


def test_fig12_single_node(benchmark):
    fig12 = ARTIFACTS["fig12"]
    rows = benchmark(fig12.data)

    pxc = rows["PowerXCell 8i"]
    # One SPE is comparable to one x86 core.
    for name, row in rows.items():
        assert 0.65 < row["single_core_s"] / pxc["single_core_s"] < 1.55, name
    # The full socket is ~2x the quad-cores and ~5x the dual-core Opteron.
    socket = {name: row["single_socket_s"] / pxc["single_socket_s"]
              for name, row in rows.items()}
    assert socket[OPTERON_QUAD_2356.name] == pytest.approx(
        paper_data.FIG12_SOCKET_VS_QUADCORE_FACTOR, rel=0.2
    )
    assert socket[TIGERTON_X7350.name] == pytest.approx(
        paper_data.FIG12_SOCKET_VS_QUADCORE_FACTOR, rel=0.2
    )
    assert socket[OPTERON_2210_HE.name] == pytest.approx(
        paper_data.FIG12_SOCKET_VS_DUALCORE_FACTOR, rel=0.15
    )

    emit(fig12.render(rows))
