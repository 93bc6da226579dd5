"""Tests for the fabric structure: crossbars, CU switches, uplink wiring."""

import pytest

from repro.network.crossbar import CROSSBAR_PORTS, XbarId
from repro.network.cu_switch import (
    COMPUTE_NODES_PER_CU,
    lower_xbar_of_local_node,
)
from repro.network.intercu import uplink_target
from repro.network.topology import RoadrunnerTopology


@pytest.fixture(scope="module")
def full_topo():
    return RoadrunnerTopology(cu_count=17)


@pytest.fixture(scope="module")
def small_topo():
    """Two CUs keeps graph assertions fast."""
    return RoadrunnerTopology(cu_count=2)


# --- node placement ------------------------------------------------------------

def test_first_176_nodes_fill_crossbars_0_to_21():
    assert lower_xbar_of_local_node(0) == 0
    assert lower_xbar_of_local_node(7) == 0
    assert lower_xbar_of_local_node(8) == 1
    assert lower_xbar_of_local_node(175) == 21


def test_last_4_compute_nodes_on_mixed_crossbar():
    for local in (176, 177, 178, 179):
        assert lower_xbar_of_local_node(local) == 22


def test_local_node_range_checked():
    with pytest.raises(ValueError):
        lower_xbar_of_local_node(180)
    with pytest.raises(ValueError):
        lower_xbar_of_local_node(-1)


def test_node_count_is_3060(full_topo):
    assert full_topo.node_count == 3060


def test_split_join_roundtrip(full_topo):
    for node in (0, 179, 180, 1500, 3059):
        cu, local = full_topo.split(node)
        assert full_topo.join(cu, local) == node
    with pytest.raises(ValueError):
        full_topo.split(3060)
    with pytest.raises(ValueError):
        full_topo.join(17, 0)
    with pytest.raises(ValueError):
        full_topo.join(0, 180)


def test_cu_count_bounds():
    with pytest.raises(ValueError):
        RoadrunnerTopology(cu_count=0)
    with pytest.raises(ValueError):
        RoadrunnerTopology(cu_count=25)
    RoadrunnerTopology(cu_count=24)  # design limit is fine


# --- crossbar identifiers --------------------------------------------------------

def test_xbarid_validation():
    XbarId("L", 0, 23).validate(17, 8)
    XbarId("U", 16, 11).validate(17, 8)
    XbarId("F", 7, 11).validate(17, 8)
    with pytest.raises(ValueError):
        XbarId("Z", 0, 0).validate(17, 8)
    with pytest.raises(ValueError):
        XbarId("L", 17, 0).validate(17, 8)
    with pytest.raises(ValueError):
        XbarId("L", 0, 24).validate(17, 8)
    with pytest.raises(ValueError):
        XbarId("U", 0, 12).validate(17, 8)
    with pytest.raises(ValueError):
        XbarId("M", 8, 0).validate(17, 8)


# --- uplink wiring ----------------------------------------------------------------

def test_uplink_targets_cover_all_8_switches_per_crossbar_pair():
    """Even crossbars reach switches 0-3, odd crossbars 4-7."""
    for i in range(24):
        switches = {uplink_target(0, i, k).owner for k in range(4)}
        expected = {0, 1, 2, 3} if i % 2 == 0 else {4, 5, 6, 7}
        assert switches == expected


def test_each_switch_gets_12_uplinks_per_cu():
    per_switch = {s: 0 for s in range(8)}
    for i in range(24):
        for k in range(4):
            per_switch[uplink_target(0, i, k).owner] += 1
    assert all(count == 12 for count in per_switch.values())


def test_uplink_level_depends_on_cu_side():
    assert uplink_target(0, 0, 0).level == "F"
    assert uplink_target(11, 0, 0).level == "F"
    assert uplink_target(12, 0, 0).level == "T"
    assert uplink_target(16, 0, 0).level == "T"


def test_uplink_port_is_crossbar_index_halved():
    assert uplink_target(0, 6, 0).index == 3
    assert uplink_target(0, 7, 0).index == 3
    assert uplink_target(0, 23, 3).index == 11


def test_uplink_bad_arguments():
    with pytest.raises(ValueError):
        uplink_target(0, 0, 4)
    with pytest.raises(ValueError):
        uplink_target(0, 24, 0)


def test_switch_port_is_unique_per_cu():
    """F(s, j) receives exactly one link from each of the first 12 CUs."""
    seen = {}
    for i in range(24):
        for k in range(4):
            target = uplink_target(3, i, k)
            key = (target.owner, target.index)
            assert key not in seen, f"two uplinks from CU 3 hit {target}"
            seen[key] = (i, k)
    assert len(seen) == 96


# --- graph structure ----------------------------------------------------------------

def test_graph_no_crossbar_exceeds_24_ports(full_topo):
    full_topo.validate_ports()


def test_lower_crossbar_port_budget(small_topo):
    """A fully populated lower crossbar uses exactly 24 ports:
    8 nodes + 12 upper links + 4 uplinks."""
    g = small_topo.graph
    assert len(g[XbarId("L", 0, 0)]) == CROSSBAR_PORTS


def test_upper_crossbars_use_all_24_ports_on_lowers(small_topo):
    g = small_topo.graph
    for j in range(12):
        assert len(g[XbarId("U", 0, j)]) == 24


def test_io_nodes_attached(small_topo):
    g = small_topo.graph
    io_nodes = [v for v in g if v[0] == "io"]
    assert len(io_nodes) == 2 * 12
    # 4 I/O on the mixed crossbar, 8 on the I/O-only crossbar.
    mixed = XbarId("L", 0, 22)
    io_only = XbarId("L", 0, 23)
    assert sum(1 for v in g[mixed] if v[0] == "io") == 4
    assert sum(1 for v in g[io_only] if v[0] == "io") == 8


def test_io_nodes_can_be_excluded():
    topo = RoadrunnerTopology(cu_count=1, include_io=False)
    assert not [v for v in topo.graph if v[0] == "io"]


def test_graph_is_connected(small_topo):
    """A breadth-first search from one vertex reaches every vertex."""
    g = small_topo.graph
    start = next(iter(g))
    seen = {start}
    frontier = [start]
    while frontier:
        reached = []
        for v in frontier:
            for w in g[v]:
                if w not in seen:
                    seen.add(w)
                    reached.append(w)
        frontier = reached
    assert seen == set(g)


@pytest.mark.parametrize("cu_count", [1, 2, 17])
def test_graph_lists_each_link_once_at_both_ends(cu_count):
    g = RoadrunnerTopology(cu_count=cu_count).graph
    for v, neighbours in g.items():
        assert len(set(neighbours)) == len(neighbours), v
        assert v not in neighbours
        for w in neighbours:
            assert v in g[w], (v, w)


def test_compute_node_count_in_graph(small_topo):
    computes = [v for v in small_topo.graph if v[0] == "node"]
    assert len(computes) == 2 * COMPUTE_NODES_PER_CU


def test_single_cu_topology_has_no_intercu_switches():
    topo = RoadrunnerTopology(cu_count=1)
    levels = {v.level for v in topo.graph if isinstance(v, XbarId)}
    assert levels == {"L", "U"}
