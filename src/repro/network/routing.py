"""Deterministic routing and the Table I hop census.

Hops count *crossbars traversed*, matching the paper's convention
("A node is one hop away from the other seven on the same crossbar,
...").  The closed-form rule below follows from the wiring in
:mod:`repro.network.intercu` and is cross-validated against
breadth-first search over the explicit graph by the test suite:

========================================  ====
destination relative to the source        hops
========================================  ====
self                                      0
same lower crossbar                       1
same CU, different crossbar               3
other CU, same fat-tree side, same-index
lower crossbar                            3
other CU, same side, different crossbar   5
other side, same-index lower crossbar     5
other side, different crossbar            7
========================================  ====
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from repro.network.crossbar import Graph, XbarId
from repro.network.cu_switch import (
    MIXED_XBAR,
    NODES_PER_LOWER_XBAR,
    lower_xbar_of_local_node,
)
from repro.network.intercu import FIRST_SIDE_CUS, uplink_target
from repro.network.topology import NodeId, RoadrunnerTopology

__all__ = [
    "hop_count",
    "hop_vector",
    "route",
    "route_uplinks",
    "hop_census",
    "average_hops",
    "degraded_route",
    "degraded_hop_vector",
    "degraded_hop_census",
    "UNREACHABLE",
]

#: hop-census key under which unreachable destinations are counted, so a
#: degraded census still sums to ``topo.node_count``
UNREACHABLE = -1


@lru_cache(maxsize=8)
def _node_tables(topo: RoadrunnerTopology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node ``(cu, lower-xbar index, fat-tree side)`` lookup arrays.

    Cached per topology object (topologies are immutable once built), so
    every vectorized sweep — :func:`hop_vector`, :func:`hop_census`,
    ``IBLatencyModel.latency_map`` — shares one table instead of calling
    ``topo.split``/``topo.lower_xbar`` per destination.
    """
    ids = np.arange(topo.node_count)
    cu, local = np.divmod(ids, topo.nodes_per_cu)
    xbar = np.where(local < 176, local // NODES_PER_LOWER_XBAR, MIXED_XBAR)
    side = cu < FIRST_SIDE_CUS
    return cu, xbar, side


@lru_cache(maxsize=1 << 16)
def _hop_count_cached(topo: RoadrunnerTopology, src: NodeId, dst: NodeId) -> int:
    cu_s, local_s = topo.split(src)
    cu_d, local_d = topo.split(dst)
    xbar_s = topo.lower_xbar(src).index
    xbar_d = topo.lower_xbar(dst).index
    if cu_s == cu_d:
        return 1 if xbar_s == xbar_d else 3
    if topo.same_side(cu_s, cu_d):
        return 3 if xbar_s == xbar_d else 5
    return 5 if xbar_s == xbar_d else 7


def hop_count(topo: RoadrunnerTopology, src: NodeId, dst: NodeId) -> int:
    """Crossbar hops between two compute nodes (closed form, LRU-cached
    per ``(topology, src, dst)``)."""
    if src == dst:
        return 0
    return _hop_count_cached(topo, src, dst)


def hop_vector(topo: RoadrunnerTopology, src: NodeId = 0) -> np.ndarray:
    """Hops from ``src`` to every node, as an int array indexed by id.

    The vectorized closed form behind :func:`hop_census` and Fig 10's
    latency map: one numpy pass over the cached per-node tables instead
    of ``node_count`` Python-level :func:`hop_count` calls.
    """
    topo.split(src)  # range-check src with the scalar path's error message
    cu, xbar, side = _node_tables(topo)
    same_cu = cu == cu[src]
    same_xbar = xbar == xbar[src]
    same_side = side == side[src]
    hops = np.where(
        same_cu,
        np.where(same_xbar, 1, 3),
        np.where(same_side, np.where(same_xbar, 3, 5), np.where(same_xbar, 5, 7)),
    )
    hops[src] = 0
    return hops


@lru_cache(maxsize=1 << 16)
def _route_cached(
    topo: RoadrunnerTopology, src: NodeId, dst: NodeId, spread: bool
) -> tuple[XbarId, ...]:
    cu_s, _ = topo.split(src)
    cu_d, local_d = topo.split(dst)
    lx_s = topo.lower_xbar(src)
    lx_d = topo.lower_xbar(dst)
    uplink = local_d % 4 if spread else 0
    upper = local_d % 12 if spread else 0
    if cu_s == cu_d:
        if lx_s == lx_d:
            return (lx_s,)
        return (lx_s, XbarId("U", cu_s, upper), lx_d)
    # Leave the source CU through the destination-selected uplink.
    exit_xbar = uplink_target(cu_s, lx_s.index, uplink)
    path: list[XbarId] = [lx_s, exit_xbar]
    if not topo.same_side(cu_s, cu_d):
        # Cross the F-M-T (or T-M-F) chain of the same switch/port.
        s, j = exit_xbar.owner, exit_xbar.index
        middle = XbarId("M", s, j)
        far_level = "T" if exit_xbar.level == "F" else "F"
        path += [middle, XbarId(far_level, s, j)]
    # Descend into the destination CU on the same-index lower crossbar.
    landing = XbarId("L", cu_d, lx_s.index)
    path.append(landing)
    if landing != lx_d:
        path += [XbarId("U", cu_d, upper), lx_d]
    return tuple(path)


def route(
    topo: RoadrunnerTopology, src: NodeId, dst: NodeId, spread: bool = False
) -> list[XbarId]:
    """The deterministic crossbar path from ``src`` to ``dst``.

    With ``spread=False`` the route always takes uplink 0 and upper
    crossbar 0 — simple, but it concentrates load.  ``spread=True``
    selects the uplink and upper crossbar by destination (the
    destination-based deterministic routing InfiniBand subnet managers
    program), spreading flows across the CU's 4 uplinks and 12 upper
    crossbars without changing any path length.  Either way the length
    equals :func:`hop_count` and every consecutive pair is a wired edge.

    Paths are memoized per ``(topology, src, dst, spread)``; the
    returned list is a fresh copy the caller may mutate.
    """
    if src == dst:
        return []
    return list(_route_cached(topo, src, dst, bool(spread)))


@lru_cache(maxsize=None)
def _uplink_edge(cu: int, lower: int, uplink: int) -> tuple[XbarId, XbarId]:
    """The canonical (sorted) vertex pair of one CU uplink edge."""
    return tuple(sorted((XbarId("L", cu, lower), uplink_target(cu, lower, uplink))))


def route_uplinks(
    topo: RoadrunnerTopology, src: NodeId, dst: NodeId, spread: bool = False
) -> tuple[tuple[XbarId, XbarId], ...]:
    """The CU uplink edges :func:`route` crosses, in path order, as
    shared sorted vertex pairs (none within a CU).

    A route leaving its CU climbs from lower crossbar ``i`` through
    uplink ``k`` and lands on lower crossbar ``i`` of the destination CU
    through its uplink ``k``, so no path needs to be built.
    """
    cu_s, local_s = topo.split(src)
    cu_d, local_d = topo.split(dst)
    if cu_s == cu_d:
        return ()
    lower = lower_xbar_of_local_node(local_s)
    uplink = local_d % 4 if spread else 0
    return (_uplink_edge(cu_s, lower, uplink), _uplink_edge(cu_d, lower, uplink))


def hop_census(topo: RoadrunnerTopology, src: NodeId = 0) -> Counter:
    """Table I: how many destinations lie at each hop distance.

    One :func:`hop_vector` pass plus a bincount over the cached
    per-node tables (no per-destination Python loop).
    """
    counts = np.bincount(hop_vector(topo, src))
    return Counter({h: int(n) for h, n in enumerate(counts) if n})


def average_hops(topo: RoadrunnerTopology, src: NodeId = 0) -> float:
    """Average hop count over *all* destinations including self, the
    convention behind Table I's '5.38 (average)' row."""
    return float(hop_vector(topo, src).sum()) / topo.node_count


# -- degraded-fabric routing --------------------------------------------------
#
# The closed forms above assume every wired link is up.  With links
# failed (see :class:`repro.resilience.health.FabricHealth`) routes are
# recomputed by breadth-first search over the topology's adjacency
# lists minus the failed edges — exactly what an InfiniBand subnet
# manager's re-sweep does after a link drops.  ``failed_links`` is
# always a *frozenset* of ``(u, v)`` vertex pairs (canonically
# :func:`repro.resilience.health.edge_key`'s), which makes it a cache
# key: the working graph is memoized until the failure set changes.
# Each source's BFS distances are not: a census reads them once, and
# keeping a 4,164-entry dict per (failure set, source) alive would grow
# with every source ever asked about.


@lru_cache(maxsize=32)
def _working_graph(topo: RoadrunnerTopology, failed_links: frozenset) -> Graph:
    """The topology graph minus the failed edges (memoized).

    With nothing failed this is ``topo.graph`` itself.  Otherwise it is
    a shallow copy in which both ends of each failed link get new
    neighbour lists without each other: a pair may come in either
    orientation, and pairs that are not wired are ignored.
    """
    graph = topo.graph
    if not failed_links:
        return graph
    graph = dict(graph)
    for u, v in failed_links:
        if v in graph.get(u, ()):
            graph[u] = [w for w in graph[u] if w != v]
            graph[v] = [w for w in graph[v] if w != u]
    return graph


def _degraded_lengths(
    topo: RoadrunnerTopology, failed_links: frozenset, src: NodeId
) -> dict:
    """BFS edge-distances from ``src``'s graph vertex over the working
    graph; vertices cut off by the failures are simply absent."""
    graph = _working_graph(topo, failed_links)
    source = topo.graph_node(src)
    lengths = {source: 0}
    level = [source]
    depth = 0
    while level:
        depth += 1
        reached = []
        for v in level:
            for w in graph[v]:
                if w not in lengths:
                    lengths[w] = depth
                    reached.append(w)
        level = reached
    return lengths


def _meeting_vertex(graph: Graph, pred: dict, succ: dict) -> tuple | None:
    """Bidirectional breadth-first search from ``pred``'s source to
    ``succ``'s target, filling both predecessor maps.

    Each round grows the smaller frontier by one level (the forward one
    on a tie), scanning neighbours in list order, and returns the first
    vertex both searches have reached; ``None`` once a frontier empties.
    This is networkx's unweighted ``bidirectional_shortest_path``, so
    among equal-cost paths it picks the same one.
    """
    forward, reverse = list(pred), list(succ)
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            frontier, mine, theirs = forward, pred, succ
        else:
            level, reverse = reverse, []
            frontier, mine, theirs = reverse, succ, pred
        for v in level:
            for w in graph[v]:
                if w not in mine:
                    frontier.append(w)
                    mine[w] = v
                if w in theirs:
                    return w
    return None


def degraded_route(
    topo: RoadrunnerTopology,
    src: NodeId,
    dst: NodeId,
    failed_links: frozenset,
) -> list[XbarId] | None:
    """A shortest crossbar path from ``src`` to ``dst`` avoiding the
    failed links, or ``None`` if the failures disconnect the pair.

    On a healthy fabric (``failed_links`` empty) the returned path has
    the same length as :func:`route`'s — the closed-form routes are
    shortest paths — though it may pick different equal-cost crossbars.
    """
    if src == dst:
        return []
    graph = _working_graph(topo, frozenset(failed_links))
    pred = {topo.graph_node(src): None}
    succ = {topo.graph_node(dst): None}
    meet = _meeting_vertex(graph, pred, succ)
    if meet is None:
        return None
    # Source ... meet from the forward map, then meet ... target.
    path = []
    v = meet
    while v is not None:
        path.append(v)
        v = pred[v]
    path.reverse()
    v = succ[meet]
    while v is not None:
        path.append(v)
        v = succ[v]
    return [v for v in path if isinstance(v, XbarId)]


def degraded_hop_vector(
    topo: RoadrunnerTopology, src: NodeId, failed_links: frozenset
) -> np.ndarray:
    """Hops from ``src`` to every node over the degraded fabric.

    Entries are crossbars traversed (BFS edge-distance minus one) or
    :data:`UNREACHABLE` for destinations the failures cut off.  With no
    failures this reproduces :func:`hop_vector` exactly (the test suite
    pins this), so the BFS fallback and the closed form can't drift.
    """
    lengths = _degraded_lengths(topo, frozenset(failed_links), src)
    hops = np.full(topo.node_count, UNREACHABLE, dtype=np.int64)
    graph_node = topo.graph_node
    for node in range(topo.node_count):
        dist = lengths.get(graph_node(node))
        if dist is not None:
            hops[node] = max(dist - 1, 0)
    return hops


def degraded_hop_census(
    topo: RoadrunnerTopology,
    src: NodeId = 0,
    failed_links: frozenset = frozenset(),
) -> Counter:
    """Table I recomputed on a degraded fabric.

    Counts destinations per hop distance, with unreachable nodes under
    the :data:`UNREACHABLE` key — the census always sums to
    ``topo.node_count`` no matter what has failed.
    """
    hops = degraded_hop_vector(topo, src, failed_links)
    counts = Counter()
    for h, n in zip(*np.unique(hops, return_counts=True)):
        counts[int(h)] = int(n)
    return counts
