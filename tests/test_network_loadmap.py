"""Tests for the link-load / oversubscription analysis."""

import pytest

from repro.network.loadmap import (
    bisection_summary,
    cross_side_links,
    cu_oversubscription,
    link_loads,
    max_link_load,
)
from repro.network.topology import RoadrunnerTopology


@pytest.fixture(scope="module")
def topo():
    return RoadrunnerTopology(cu_count=17)


def test_single_flow_loads_every_link_once(topo):
    loads = link_loads(topo, [(0, 100)])
    # 3-hop route: node-xbar, xbar-upper, upper-xbar, xbar-node = 4 links.
    assert sum(loads.values()) == 4
    assert all(v == 1 for v in loads.values())


def test_self_flow_loads_nothing(topo):
    assert link_loads(topo, [(5, 5)]) == {}
    assert max_link_load(topo, [(5, 5)]) == 0


def test_incast_concentrates_on_access_link(topo):
    """Many flows to one node all share its access link."""
    pairs = [(src, 0) for src in range(1, 9)]
    assert max_link_load(topo, pairs) == 8


def test_disjoint_flows_do_not_share_links(topo):
    pairs = [(0, 1), (8, 9), (16, 17)]  # distinct crossbars
    loads = link_loads(topo, pairs)
    assert max(loads.values()) == 1


def test_same_crossbar_flows_use_two_links(topo):
    loads = link_loads(topo, [(0, 1)])
    assert sum(loads.values()) == 2


def test_intercu_flow_traverses_uplink(topo):
    loads = link_loads(topo, [(0, 180)])
    # node0 -> L -> F -> L -> node180 (same-index crossbar): 4 links.
    assert sum(loads.values()) == 4
    assert any("'F'" in a or "'F'" in b for a, b in loads)


def test_cross_side_flow_traverses_fmt_chain(topo):
    loads = link_loads(topo, [(0, 12 * 180)])
    names = [a + b for a, b in loads]
    assert any("'M'" in n for n in names)
    assert any("'T'" in n for n in names)


def test_cu_oversubscription_is_about_2_to_1():
    """The paper's '2:1 reduced fat tree': 180 nodes share 96 uplinks."""
    ratio = cu_oversubscription()
    assert ratio == pytest.approx(180 / 96)
    assert 1.5 < ratio <= 2.0


def test_cross_side_links_count():
    assert cross_side_links() == 96


def test_bisection_summary_values():
    s = bisection_summary()
    assert s["cu_uplink_capacity"] == pytest.approx(96 * 2e9)
    assert s["cu_node_capacity"] == pytest.approx(180 * 2e9)
    assert s["cross_side_capacity"] == pytest.approx(96 * 2e9)
    assert s["far_side_nodes"] == 900
    # Each far-side node's share of the waist: ~0.21 GB/s.
    assert s["far_side_per_node_share"] == pytest.approx(96 * 2e9 / 900)


def test_bisection_summary_validates_bandwidth():
    with pytest.raises(ValueError):
        bisection_summary(link_bandwidth=0.0)


def test_spread_routing_keeps_path_lengths(topo):
    from repro.network.routing import hop_count, route

    for a, b in [(0, 50), (0, 250), (0, 2300), (700, 2500)]:
        assert len(route(topo, a, b, spread=True)) == hop_count(topo, a, b)


def test_spread_routes_are_wired(topo):
    g = topo.graph
    for a, b in [(0, 50), (0, 1000), (0, 2300), (500, 2900)]:
        from repro.network.routing import route

        path = [topo.graph_node(a), *route(topo, a, b, spread=True),
                topo.graph_node(b)]
        for u, v in zip(path, path[1:]):
            assert v in g[u]


def test_spread_routing_balances_uplinks(topo):
    """The all-out-of-CU pattern that loaded one uplink 8x under
    default routing spreads to at most 2x with destination hashing."""
    pairs = [(n, 180 + n) for n in range(180)]
    assert max_link_load(topo, pairs) == 8
    assert max_link_load(topo, pairs, spread=True) <= 3
