"""Table I: hop-count census from node 0 over the wired fabric."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_table1_hop_census(benchmark):
    table1 = ARTIFACTS["table1"]
    data = benchmark(table1.data)

    expected = {0: 1, 1: 7, 3: 172 + 88, 5: 1892 + 40, 7: 860}
    assert data["destinations_by_hops"] == {str(h): n for h, n in expected.items()}
    assert data["average_hops"] == pytest.approx(paper_data.HOP_AVERAGE, abs=0.005)

    emit(table1.render(data))
