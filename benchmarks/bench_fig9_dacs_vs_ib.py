"""Fig 9: DaCS-over-PCIe vs MPI-over-InfiniBand bandwidth and their
ratio across message sizes."""

import pytest

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.units import KIB
from repro.validation import paper_data


def test_fig9_dacs_vs_ib(benchmark):
    fig9 = ARTIFACTS["fig9"]
    data = benchmark(fig9.data)
    sizes, ratio = data["sizes_bytes"], data["ratio_ib_over_dacs"]

    # Paper: DaCS under half of IB in the small-message range...
    for size, r in zip(sizes, ratio):
        if 2 * KIB <= size <= 20 * KIB:
            assert r > 1 / paper_data.DACS_SMALL_MSG_RATIO_MAX, size
    # ... and the ratio approaches 1 for large messages.
    assert ratio[-1] == pytest.approx(1.0, abs=0.1)
    # IB is never meaningfully slower than the early DaCS stack.
    assert all(r >= 0.95 for r in ratio)

    emit(fig9.render(data))
