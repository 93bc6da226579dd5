"""Integration: the distributed sweep across multiple simulated nodes
with realistic SPE placement and the location-aware fabric."""

import numpy as np
import pytest

from repro.comm.cml import CellMessagePath
from repro.sweep3d.cellport import grind_time
from repro.hardware.cell import POWERXCELL_8I
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.placement import boundary_classes, spe_locations
from repro.sweep3d.quadrature import make_angle_set
from repro.sweep3d.solver import sweep_all_octants


@pytest.fixture(scope="module")
def two_node_run():
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(16, 4)  # two nodes stacked in i
    sweep = ParallelSweep(
        inp,
        dec,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=CellMessagePath(),
        locations=spe_locations(dec),
    )
    return inp, dec, sweep.run()


def test_two_node_flux_matches_sequential(two_node_run):
    inp, dec, result = two_node_run
    global_inp = inp.with_subgrid(inp.it * dec.npe_i, inp.jt * dec.npe_j, inp.kt)
    src = np.full((global_inp.it, global_inp.jt, global_inp.kt), inp.q)
    expected, _, _ = sweep_all_octants(global_inp, src, make_angle_set(inp.mmi))
    np.testing.assert_allclose(result.phi, expected, rtol=1e-12, atol=1e-13)


def test_two_node_decomposition_crosses_the_network(two_node_run):
    inp, dec, _result = two_node_run
    census = boundary_classes(dec)
    assert census["internode"] == 4  # the tile seam: one j-row of 4 links
    assert census["intra-socket"] > census["internode"]


def test_internode_boundaries_slow_the_sweep(two_node_run):
    """The same logical sweep placed on one node runs faster than the
    two-node placement — the network seam costs real simulated time."""
    inp, dec, result = two_node_run
    one_node = Decomposition2D(8, 4)
    small = ParallelSweep(
        inp,
        one_node,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=CellMessagePath(),
        locations=spe_locations(one_node),
    ).run()
    # Two-node run has twice the pipeline depth in i plus IB seams.
    assert result.iteration_time > small.iteration_time


def test_efficiency_below_one_with_real_links(two_node_run):
    _inp, _dec, result = two_node_run
    assert 0.0 < result.parallel_efficiency < 0.6
