"""Tests for SPE-centric rank placement and boundary locality."""

import pytest

from repro.comm.cml import (
    QS21_CROSS_SOCKET,
    CML_EIB_PAIR,
    INTRANODE_CELL_PATH,
    CellMessagePath,
)
from repro.comm.mpi import Location
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.placement import (
    SPE_TILE,
    boundary_classes,
    spe_locations,
)


def test_single_node_tile():
    dec = Decomposition2D(8, 4)
    locs = spe_locations(dec)
    assert len(locs) == 32
    assert all(loc.node == 0 for loc in locs)
    assert {loc.cell for loc in locs} == {0, 1, 2, 3}
    assert {loc.spe for loc in locs} == set(range(8))


def test_multi_node_tiling():
    dec = Decomposition2D(16, 8)  # 4 nodes in a 2x2 tile grid
    locs = spe_locations(dec)
    nodes = {loc.node for loc in locs}
    assert nodes == {0, 1, 2, 3}
    # Each node holds exactly 32 ranks.
    for node in nodes:
        assert sum(1 for loc in locs if loc.node == node) == 32


def test_rank_zero_is_node0_cell0_spe0():
    dec = Decomposition2D(16, 8)
    assert spe_locations(dec)[0] == Location(node=0, cell=0, spe=0)


def test_i_neighbours_mostly_share_a_socket():
    """The tiling's point: within a column of 8, i-neighbours are on
    the same Cell."""
    dec = Decomposition2D(8, 4)
    locs = spe_locations(dec)
    a = locs[dec.rank_of(2, 1)]
    b = locs[dec.rank_of(3, 1)]
    assert (a.node, a.cell) == (b.node, b.cell)


def test_boundary_census_single_node():
    dec = Decomposition2D(8, 4)
    census = boundary_classes(dec)
    assert census["internode"] == 0
    # i-boundaries within socket columns: 7 per column x 4 = 28.
    assert census["intra-socket"] == 28
    # j-boundaries between the node's cells: 3 per row x 8 = 24.
    assert census["intranode"] == 24


def test_boundary_census_multi_node_mostly_local():
    dec = Decomposition2D(16, 8)
    census = boundary_classes(dec)
    total = sum(census.values())
    assert census["internode"] > 0
    # The tiling keeps >= 75% of boundaries off the network.
    assert (census["intra-socket"] + census["intranode"]) / total >= 0.75


def test_cell_fabric_charges_by_class():
    fabric = CellMessagePath()
    same_socket = fabric.one_way_time(
        Location(0, 0, 0), Location(0, 0, 1), 0
    )
    in_node = fabric.one_way_time(Location(0, 0, 0), Location(0, 1, 0), 0)
    across = fabric.one_way_time(Location(0, 0, 0), Location(1, 0, 0), 0)
    assert same_socket == pytest.approx(CML_EIB_PAIR.latency)
    assert in_node == pytest.approx(INTRANODE_CELL_PATH.zero_byte_latency)
    assert same_socket < in_node < across
    assert fabric.one_way_time(Location(0, 0, 0), Location(0, 0, 0), 100) == 0.0


def test_qs21_coherent_path_beats_roadrunner_intranode():
    """§V-C: on a QS21 the cross-socket hop stays on the EIB; on
    Roadrunner it must relay over PCIe — orders of magnitude apart."""
    for size in (0, 4096, 131072):
        assert (
            QS21_CROSS_SOCKET.one_way_time(size)
            < INTRANODE_CELL_PATH.one_way_time(size) / 5
        )
    # But it is slower than staying on-chip.
    assert QS21_CROSS_SOCKET.one_way_time(131072) > CML_EIB_PAIR.one_way_time(131072)
