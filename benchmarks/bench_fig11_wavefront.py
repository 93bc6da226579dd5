"""Fig 11: wavefront propagation — the sweep's execution order derived
from the kernel's dependencies and checked against the DES."""

from benchmarks.conftest import emit
from repro.core.artifacts import ARTIFACTS
from repro.sweep3d.wavefront import processed_cells, total_steps


def test_fig11_wavefront(benchmark):
    fig11 = ARTIFACTS["fig11"]
    census = benchmark(fig11.data)

    # 1-D: one cell per step.  2-D: 1,2,3,4,3,2,1.  3-D: grows as the
    # triangular numbers then shrinks symmetrically.
    assert census["4"] == [1, 1, 1, 1]
    assert census["4x4"] == [1, 2, 3, 4, 3, 2, 1]
    assert census["4x4x4"] == [1, 3, 6, 10, 12, 12, 10, 6, 3, 1]
    # Each row sums to the cell count.
    assert sum(census["4x4x4"]) == 64
    # Everything processed after the final step.
    assert len(processed_cells((4, 4), total_steps((4, 4)) + 1)) == 16

    emit(fig11.render(census))
