"""Table III: STREAM TRIAD bandwidth and memtime latency per processor."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.validation import paper_data


def test_table3_memory(benchmark):
    table3 = ARTIFACTS["table3"]
    rows = benchmark(table3.data)

    for name, row in rows.items():
        assert row["stream_triad_gb_s"] == pytest.approx(
            paper_data.STREAM_TRIAD_GB_S[name], rel=1e-6
        )
        assert row["memtime_latency_ns"] == pytest.approx(
            paper_data.MEMTIME_LATENCY_NS[name]
        )

    emit(table3.render(rows))
