"""Tests for the Fig 11 wavefront sets — including the check that they
match the discrete-event sweep's actual execution order."""

import pytest

from repro.comm.mpi import UniformFabric
from repro.comm.transport import Transport
from repro.obs import ObsRecorder
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.wavefront import (
    processed_cells,
    render_2d,
    total_steps,
    wavefront_cells,
)


def test_total_steps_by_dimension():
    """Fig 11's three rows: 1-D, 2-D, 3-D propagation."""
    assert total_steps((4,)) == 4
    assert total_steps((4, 4)) == 7
    assert total_steps((4, 4, 4)) == 10


def test_wavefront_is_the_antidiagonal():
    assert wavefront_cells((4, 4), 1) == {(0, 0)}
    assert wavefront_cells((4, 4), 2) == {(0, 1), (1, 0)}
    assert wavefront_cells((4, 4), 3) == {(0, 2), (1, 1), (2, 0)}


def test_wavefronts_partition_the_grid():
    shape = (3, 4, 2)
    seen = set()
    for step in range(1, total_steps(shape) + 1):
        front = wavefront_cells(shape, step)
        assert front, step
        assert not (front & seen)
        seen |= front
    assert len(seen) == 3 * 4 * 2


def test_processed_grows_monotonically():
    shape = (4, 4)
    for step in range(1, total_steps(shape) + 1):
        assert processed_cells(shape, step) < processed_cells(shape, step + 1)


def test_dependencies_always_satisfied():
    """Every wavefront cell's upstream neighbours were processed on an
    earlier step — the defining property of the sweep."""
    shape = (3, 3, 3)
    for step in range(1, total_steps(shape) + 1):
        done = processed_cells(shape, step)
        for cell in wavefront_cells(shape, step):
            for axis in range(3):
                if cell[axis] > 0:
                    upstream = tuple(
                        c - (1 if a == axis else 0) for a, c in enumerate(cell)
                    )
                    assert upstream in done


def test_step_range_validation():
    with pytest.raises(ValueError):
        wavefront_cells((4, 4), 0)
    with pytest.raises(ValueError):
        wavefront_cells((4, 4), 8)
    with pytest.raises(ValueError):
        total_steps(())
    with pytest.raises(ValueError):
        render_2d((2, 2, 2), 1)  # type: ignore[arg-type]


def test_render_2d_frames():
    frame = render_2d((3, 3), 2)
    assert frame.splitlines() == ["#*.", "*..", "..."]
    last = render_2d((3, 3), total_steps((3, 3)))
    assert last.splitlines()[-1][-1] == "*"


def test_des_sweep_executes_in_wavefront_order():
    """The DES's first-octant block start times follow the Fig 11
    diagonals: rank (pi, pj) starts at step pi + pj + 1."""
    inp = SweepInput(it=2, jt=2, kt=2, mk=2, mmi=1)  # one block per octant
    dec = Decomposition2D(4, 4)
    rec = ObsRecorder(categories={"sweep.compute"})
    grind = 1e-6
    block = inp.block_angle_work() * grind
    fabric = UniformFabric(Transport("free", 1e-12, 1e18))
    ParallelSweep(inp, dec, grind, fabric, obs=rec).run()
    # First octant, block 0: start time / block = diagonal index.
    starts = {}
    for span in rec.spans:
        if dict(span.attrs) == {"octant": 0, "block": 0}:
            starts[span.track] = span.t0
    assert len(starts) == dec.size
    for rank, start in starts.items():
        pi, pj = dec.coords(rank)
        step = round(start / block)
        assert step == pi + pj, (rank, start)
        assert (pi, pj) in wavefront_cells((4, 4), step + 1)
