"""Fig 7: intra- and internode bandwidth, unidirectional (doubled) vs
bidirectional, over message sizes 1 B - 1 MB.

The figure's *intranode* case is the PPE-Opteron DaCS/PCIe hop; the
*internode* case is the full PPE-Opteron-Opteron-PPE relay path.
"""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_fig7_cell_bandwidth(benchmark):
    fig7 = ARTIFACTS["fig7"]
    data = benchmark(fig7.data)
    assert data["sizes_bytes"][-1] == 1_000_000

    # Published 1 MB endpoints.
    assert data["intranode_2x_uni_mb_s"][-1] == pytest.approx(
        paper_data.INTRANODE_2X_UNIDIR_MB_S, rel=0.02
    )
    assert data["intranode_bidir_mb_s"][-1] == pytest.approx(
        paper_data.INTRANODE_BIDIR_MB_S, rel=0.02
    )
    assert data["internode_2x_uni_mb_s"][-1] == pytest.approx(
        paper_data.INTERNODE_2X_UNIDIR_MB_S, rel=0.03
    )
    assert data["internode_bidir_mb_s"][-1] == pytest.approx(
        paper_data.INTERNODE_BIDIR_MB_S, rel=0.03
    )
    # The bidirectional fractions of the paper.
    assert data["intranode_bidir_mb_s"][-1] / data["intranode_2x_uni_mb_s"][-1] == (
        pytest.approx(paper_data.INTRANODE_BIDIR_FRACTION, abs=0.01)
    )
    assert data["internode_bidir_mb_s"][-1] / data["internode_2x_uni_mb_s"][-1] == (
        pytest.approx(paper_data.INTERNODE_BIDIR_FRACTION, abs=0.01)
    )
    # All curves rise monotonically with message size.
    for name, series in data.items():
        assert all(b >= a for a, b in zip(series, series[1:])), name

    emit(fig7.render(data))
