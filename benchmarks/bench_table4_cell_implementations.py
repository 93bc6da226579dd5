"""Table IV: Sweep3D implementations on the Cell (50x50x50, MK=10)."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_table4_cell_implementations(benchmark):
    table4 = ARTIFACTS["table4"]
    times = benchmark(table4.data)

    assert times["previous_cbe_s"] == pytest.approx(
        paper_data.TABLE4_PREVIOUS_CBE_S, rel=0.05
    )
    assert times["ours_cbe_s"] == pytest.approx(paper_data.TABLE4_OURS_CBE_S, rel=0.02)
    assert times["ours_pxc8i_s"] == pytest.approx(
        paper_data.TABLE4_OURS_PXC8I_S, rel=0.02
    )
    assert times["ours_cbe_s"] / times["ours_pxc8i_s"] == pytest.approx(
        paper_data.TABLE4_CBE_TO_PXC8I_FACTOR, rel=0.05
    )

    emit(table4.render(times))
