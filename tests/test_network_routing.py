"""Tests for routing: Table I's hop census, path validity, BFS oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.crossbar import XbarId
from repro.network.latency import IBLatencyModel
from repro.network.routing import (
    average_hops,
    degraded_hop_vector,
    hop_census,
    hop_count,
    hop_vector,
    route,
    route_uplinks,
)
from repro.network.cu_switch import NODES_PER_LOWER_XBAR
from repro.network.topology import RoadrunnerTopology
from repro.units import US
from repro.validation import paper_data


@pytest.fixture(scope="module")
def topo():
    return RoadrunnerTopology(cu_count=17)


# --- Table I, row by row (from node 0 in CU 1) ---------------------------------

def test_self_distance_zero(topo):
    assert hop_count(topo, 0, 0) == 0


def test_same_crossbar_seven_neighbours_at_1_hop(topo):
    at_one = [d for d in range(topo.node_count) if hop_count(topo, 0, d) == 1]
    assert len(at_one) == 7
    assert at_one == list(range(1, 8))


def test_hop_count_rejects_nodes_off_the_machine(topo):
    with pytest.raises(ValueError, match="node 3060 out of range"):
        hop_count(topo, 0, topo.node_count)
    with pytest.raises(ValueError, match="node -1 out of range"):
        hop_count(topo, -1, 0)
    with pytest.raises(ValueError, match="node 3060 out of range"):
        hop_count(topo, 3060, 3060)


def test_census_matches_table1(topo):
    census = hop_census(topo, src=0)
    expected_counts = {0: 1, 1: 7, 3: 172 + 88, 5: 1892 + 40, 7: 860}
    assert dict(census) == expected_counts


def test_census_splits_by_cu_group(topo):
    """Disaggregate the 3-hop and 5-hop rows exactly as Table I does."""
    same_cu_3 = in_2_12_same = in_2_12_diff = in_13_17_same = in_13_17_diff = 0
    for dst in range(topo.node_count):
        h = hop_count(topo, 0, dst)
        cu, _ = topo.split(dst)
        if cu == 0:
            if h == 3:
                same_cu_3 += 1
        elif cu < 12:
            if h == 3:
                in_2_12_same += 1
            elif h == 5:
                in_2_12_diff += 1
        else:
            if h == 5:
                in_13_17_same += 1
            elif h == 7:
                in_13_17_diff += 1
    table = paper_data.HOP_CENSUS
    assert same_cu_3 == table["same CU"][0]
    assert in_2_12_same == table["CUs 2-12 same crossbar"][0]
    assert in_2_12_diff == table["CUs 2-12 different crossbar"][0]
    assert in_13_17_same == table["CUs 13-17 same crossbar"][0]
    assert in_13_17_diff == table["CUs 13-17 different crossbar"][0]


def test_average_hops_is_5_38(topo):
    assert average_hops(topo, src=0) == pytest.approx(paper_data.HOP_AVERAGE, abs=0.005)


def test_hop_count_symmetry(topo):
    pairs = [(0, 100), (5, 2000), (179, 181), (1000, 2900), (2200, 2300)]
    for a, b in pairs:
        assert hop_count(topo, a, b) == hop_count(topo, b, a)


# --- explicit routes -------------------------------------------------------------

def test_route_same_node_empty(topo):
    assert route(topo, 42, 42) == []


def test_route_same_crossbar_single_hop(topo):
    path = route(topo, 0, 5)
    assert path == [XbarId("L", 0, 0)]


def test_route_lengths_match_hop_count(topo):
    pairs = [(0, 3), (0, 50), (0, 180), (0, 250), (0, 2160), (0, 3059), (500, 2500)]
    for a, b in pairs:
        assert len(route(topo, a, b)) == hop_count(topo, a, b)


def test_route_edges_exist_in_graph(topo):
    """Every consecutive crossbar pair on a route is a wired link."""
    g = topo.graph
    for a, b in [(0, 3), (0, 50), (0, 1000), (0, 2200), (700, 2500), (2300, 100)]:
        path = route(topo, a, b)
        full = [topo.graph_node(a), *path, topo.graph_node(b)]
        for u, v in zip(full, full[1:]):
            assert v in g[u], f"{u} -- {v} missing on route {a}->{b}"


# --- BFS oracle (the closed form equals shortest paths over the graph) -----------

@settings(max_examples=40, deadline=None)
@given(src=st.integers(min_value=0, max_value=3059))
def test_closed_form_matches_bfs(src):
    """The closed form's hops to all 3,060 destinations equal a
    breadth-first search over the wired graph with nothing failed."""
    topo = _topo_cached()
    bfs = degraded_hop_vector(topo, src, frozenset())
    assert (bfs == hop_vector(topo, src)).all()


_TOPO_CACHE = None


def _topo_cached():
    global _TOPO_CACHE
    if _TOPO_CACHE is None:
        _TOPO_CACHE = RoadrunnerTopology(cu_count=17)
    return _TOPO_CACHE


# --- smaller systems --------------------------------------------------------------

def _path_uplinks(topo, src, dst, spread):
    """The lower-to-inter-CU edges of route()'s path, as sorted pairs."""
    path = route(topo, src, dst, spread=spread)
    return [
        tuple(sorted((u, v)))
        for u, v in zip(path, path[1:])
        if u.level + v.level in ("LF", "FL", "LT", "TL")
    ]


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("cu_count", [2, 13])
def test_route_uplinks_closed_form_matches_route(cu_count, spread):
    """Every pair of a 2-CU fabric, and one node per lower crossbar on
    13 CUs (so routes cross between the F and T sides too), offset so
    spread routing picks every uplink index."""
    topo = RoadrunnerTopology(cu_count=cu_count)
    if cu_count == 2:
        nodes = range(topo.node_count)
    else:
        nodes = [
            cu * topo.nodes_per_cu + NODES_PER_LOWER_XBAR * xbar + xbar % 4
            for cu in range(cu_count)
            for xbar in range(23)
        ]
    for src in nodes:
        for dst in nodes:
            got = route_uplinks(topo, src, dst, spread=spread)
            assert list(got) == _path_uplinks(topo, src, dst, spread)


def test_route_uplinks_returns_shared_edge_objects():
    topo = RoadrunnerTopology(cu_count=13)
    first = route_uplinks(topo, 0, 12 * 180 + 5)
    again = route_uplinks(topo, 1, 12 * 180 + 9)
    assert len(first) == 2 and first[0] is again[0] and first[1] is again[1]
    assert first[0][0].level == "F" and first[1][1].level == "T"
    assert route_uplinks(topo, 0, 100) == ()


def test_single_cu_hops_capped_at_3():
    topo = RoadrunnerTopology(cu_count=1)
    census = hop_census(topo, src=0)
    assert set(census) == {0, 1, 3}


def test_two_cu_census():
    topo = RoadrunnerTopology(cu_count=2)
    census = hop_census(topo, src=0)
    # 8 same-index nodes in CU 2 at 3 hops, rest of CU 2 at 5.
    assert census[3] == 172 + 8
    assert census[5] == 172


# --- Fig 10 latency staircase -------------------------------------------------------

def test_fig10_latency_levels(topo):
    model = IBLatencyModel()
    lat = model.zero_byte_latency
    assert lat(topo, 0, 1) / US == pytest.approx(paper_data.MPI_MIN_LATENCY_US, rel=0.02)
    assert lat(topo, 0, 100) / US == pytest.approx(paper_data.MPI_SAME_CU_LATENCY_US, rel=0.03)
    assert lat(topo, 0, 250) / US == pytest.approx(paper_data.MPI_5HOP_LATENCY_US, rel=0.04)
    # far side, different crossbar: "just under 4 us"
    far = lat(topo, 0, 2200) / US
    assert 3.7 <= far < 4.0


def test_fig10_map_is_monotone_staircase(topo):
    model = IBLatencyModel()
    series = model.latency_map(topo, src=0)
    assert len(series) == 3060
    assert series[0] == 0.0
    # Plateaus: within-crossbar < within-CU < near-side < far-side.
    assert max(series[1:8]) < min(series[8:180])
    assert max(series[8:180]) < min(s for s in series[180:2160] if s > model.software_overhead + 3.1e-7 * 3)


def test_fig10_periodic_dips_to_3_hops(topo):
    """The 'unique wiring' dips: the first 8 nodes of each near-side CU
    are 3 hops from node 0 instead of 5."""
    model = IBLatencyModel()
    series = model.latency_map(topo, src=0)
    for cu in range(1, 12):
        base = cu * 180
        dip = series[base]
        plateau = series[base + 20]
        assert dip < plateau


def test_message_latency_adds_bandwidth_term(topo):
    model = IBLatencyModel()
    zero = model.zero_byte_latency(topo, 0, 100)
    one_mb = model.message_latency(topo, 0, 100, 1_000_000)
    assert one_mb == pytest.approx(zero + 1_000_000 / model.bandwidth)
    with pytest.raises(ValueError):
        model.message_latency(topo, 0, 100, -1)


@pytest.mark.parametrize("field, value", [
    ("software_overhead", float("nan")), ("software_overhead", float("inf")),
    ("hop_latency", float("nan")), ("hop_latency", float("inf")),
    ("bandwidth", float("nan")), ("bandwidth", float("inf")),
    ("bandwidth", 0.0),
])
def test_latency_model_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValueError, match="finite"):
        IBLatencyModel(**{field: value})


def test_pinned_buffers_reach_1_6_gb_s(topo):
    model = IBLatencyModel(bandwidth=paper_data.IB_1MB_PINNED_MB_S * 1e6)
    t = model.message_latency(topo, 0, 100, 1_000_000)
    achieved = 1_000_000 / t
    # Effective rate sits just under the 1.6 GB/s pinned-buffer peak.
    assert 1.5e9 < achieved < 1.6e9


@settings(max_examples=25, deadline=None)
@given(src=st.integers(min_value=0, max_value=3059))
def test_census_shape_invariant_across_sources(src):
    """The hop census depends only on (a) how many compute nodes share
    the source's crossbar and (b) which fat-tree side its CU is on."""
    topo = _topo_cached()
    census = hop_census(topo, src=src)
    cu, local = topo.split(src)
    crossbar_peers = 8 if local < 176 else 4  # nodes 176-179: mixed xbar
    same_side_cus = (12 if cu < 12 else 5) - 1
    cross_side_cus = 17 - 1 - same_side_cus
    assert census[0] == 1
    assert census[1] == crossbar_peers - 1
    assert census[3] == (180 - crossbar_peers) + same_side_cus * crossbar_peers
    assert census[5] == (
        same_side_cus * (180 - crossbar_peers) + cross_side_cus * crossbar_peers
    )
    assert census[7] == cross_side_cus * (180 - crossbar_peers)
    assert sum(census.values()) == 3060


# --- vectorized hop table (the cached fast path) -------------------------------

def test_hop_vector_matches_scalar_hop_count(topo):
    """The cached per-source hop table must agree element-for-element
    with the scalar closed form for arbitrary sources."""
    for src in (0, 179, 180, 1536, 3059):
        hops = hop_vector(topo, src)
        assert len(hops) == topo.node_count
        assert hops[src] == 0
        for dst in range(0, topo.node_count, 97):
            assert hops[dst] == hop_count(topo, src, dst)


def test_census_totals_equal_machine_size(topo):
    """Every source's census must account for exactly the 3,060 compute
    nodes of the full machine — the cached table drops or double-counts
    nothing."""
    for src in (0, 7, 176, 179, 1529, 3059):
        census = hop_census(topo, src=src)
        assert sum(census.values()) == 3060
        assert census[0] == 1  # the source itself, at distance zero


def test_hop_vector_rejects_out_of_range_source(topo):
    with pytest.raises(ValueError):
        hop_vector(topo, -1)
    with pytest.raises(ValueError):
        hop_vector(topo, topo.node_count)
