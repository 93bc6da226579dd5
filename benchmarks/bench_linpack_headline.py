"""§I/§II headline claims: 1.026 Pflop/s LINPACK, 437 Mflop/s/W, and
the Opteron-only 'approximately position 50' counterfactual."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_linpack_headline(benchmark):
    linpack = ARTIFACTS["linpack"]
    data = benchmark(linpack.data)

    assert data["rmax_pflops"] == pytest.approx(
        paper_data.LINPACK_SUSTAINED_PFLOPS, rel=0.01
    )
    assert data["green500_mflops_per_watt"] == pytest.approx(
        paper_data.GREEN500_MFLOPS_PER_WATT, rel=0.01
    )
    assert data["green500_cell_only_mflops_per_watt"] == pytest.approx(
        paper_data.GREEN500_CELL_ONLY_MFLOPS_PER_WATT, rel=0.01
    )
    assert 35 <= data["opteron_only_top500_position"] <= 60

    emit(linpack.render(data))
