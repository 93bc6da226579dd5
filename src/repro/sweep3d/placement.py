"""Mapping SPE-centric ranks onto the machine (paper §V-C).

CML makes "the cluster appear to be a sea of interconnected SPEs", but
performance "still requires that attention be paid to intranode versus
internode communication".  This module provides the standard placement:
the logical 2-D process array is tiled by node tiles of 8 x 4 ranks
(8 SPEs per Cell along i, the node's 4 Cells along j), so most
i-boundaries stay on-chip, j-boundaries stay in-node, and only tile
edges cross InfiniBand.  :class:`~repro.comm.cml.CellMessagePath` is the
fabric that charges each boundary its class; :class:`HopAwareFabric`
adds the crossbar hops between nodes, for placement studies.
"""

from __future__ import annotations

from math import inf

from repro.comm.cml import CellMessagePath
from repro.comm.mpi import Location
from repro.network.routing import hop_count
from repro.network.topology import RoadrunnerTopology
from repro.sweep3d.decomposition import Decomposition2D

__all__ = [
    "SPE_TILE",
    "spe_locations",
    "boundary_classes",
    "unusable_nodes",
    "failure_aware_locations",
    "naive_respawn_locations",
    "HopAwareFabric",
]

#: Ranks per node tile: 8 SPEs (i) x 4 Cells (j).
SPE_TILE = (8, 4)


def spe_locations(decomp: Decomposition2D) -> list[Location]:
    """Physical (node, cell, spe) of every rank under 8x4 tiling.

    Requires the process array to be tileable (npe_i a multiple of 8 or
    smaller than 8 with a single node column, likewise npe_j vs 4);
    partial tiles are allowed at the array edges.
    """
    ti, tj = SPE_TILE
    tiles_j = -(-decomp.npe_j // tj)
    locations = []
    for rank in range(decomp.size):
        pi, pj = decomp.coords(rank)
        node = (pi // ti) * tiles_j + (pj // tj)
        locations.append(Location(node=node, cell=pj % tj, spe=pi % ti))
    return locations


# -- failure-aware placement ------------------------------------------------
#
# When nodes die mid-campaign the job must respawn the lost tiles on
# spare triblades.  Where those spares sit matters: the healthy tiling
# keeps neighbouring tiles on consecutive nodes (mostly one crossbar
# hop apart), so a replacement pulled from the far end of the machine
# drags its tile boundaries across the reduced fat tree's full depth.
# ``failure_aware_locations`` consults the health ledger and substitutes
# spares from the *same CU* first (3 hops to the old neighbours), only
# spilling to the nearest other CU when the home CU is exhausted;
# ``naive_respawn_locations`` models a locality-blind scheduler that
# backfills from the free-node pool at the far end of the machine.

#: compute nodes per connected unit (paper §II-B)
NODES_PER_CU = 180


def unusable_nodes(health, nodes) -> frozenset[int]:
    """The subset of ``nodes`` the ledger marks unusable: the node
    itself failed, or its single access link (node to lower crossbar)
    is down — either way the node cannot reach the fabric."""
    failed_links = health.failed_links
    out = set()
    for node in nodes:
        if not health.node_ok(node):
            out.add(node)
            continue
        # access links appear in the ledger as the topology graph's
        # ("node", cu, local) vertex on one side
        vertex = ("node", node // NODES_PER_CU, node % NODES_PER_CU)
        for u, v in failed_links:
            if u == vertex or v == vertex:
                out.add(node)
                break
    return frozenset(out)


def _substitutions(base, health, machine_nodes, prefer_same_cu):
    """Map each unusable base node to a healthy spare, deterministically.

    With ``prefer_same_cu`` spares come from the failed node's own CU
    first, then the CU at the smallest CU distance (lowest id breaking
    ties); without it, from the tail of the machine's free pool — the
    locality-blind backfill a generic scheduler would hand out.
    """
    used = {loc.node for loc in base}
    down = unusable_nodes(health, range(machine_nodes))
    dead = sorted(n for n in used if n in down)
    if not dead:
        return {}
    spares = sorted(n for n in range(machine_nodes) if n not in used and n not in down)
    if len(dead) > len(spares):
        raise ValueError(
            f"machine exhausted: {len(dead)} nodes to replace, "
            f"{len(spares)} healthy spares"
        )
    mapping = {}
    free = set(spares)
    for node in dead:
        if prefer_same_cu:
            cu = node // NODES_PER_CU
            pick = min(
                free,
                key=lambda s: (abs(s // NODES_PER_CU - cu), s),
            )
        else:
            pick = max(free)
        mapping[node] = pick
        free.discard(pick)
    return mapping


def failure_aware_locations(
    decomp: Decomposition2D,
    health,
    base: list[Location] | None = None,
    machine_nodes: int = 3060,
) -> list[Location]:
    """The 8x4 tiling re-routed around the health ledger's failures.

    Tiles on unusable nodes move to spare triblades in the same CU
    (``Location.node // 180``) when any are healthy and unused, and
    only then spill to the CU at the smallest CU distance — so a
    replaced tile stays at most 3 crossbar hops from its old
    neighbours whenever the home CU has a spare.
    """
    base = list(base) if base is not None else spe_locations(decomp)
    mapping = _substitutions(base, health, machine_nodes, prefer_same_cu=True)
    if not mapping:
        return base
    return [
        Location(node=mapping.get(l.node, l.node), cell=l.cell, spe=l.spe)
        for l in base
    ]


def naive_respawn_locations(
    decomp: Decomposition2D,
    health,
    base: list[Location] | None = None,
    machine_nodes: int = 3060,
) -> list[Location]:
    """The locality-blind baseline: failed tiles respawn on whatever
    the free pool offers — modeled as the highest-numbered healthy
    unused node, since a packed job's spares accumulate at the far end
    of the machine.  Compared against :func:`failure_aware_locations`
    under identical fault seeds in ``examples/failure_study.py``."""
    base = list(base) if base is not None else spe_locations(decomp)
    mapping = _substitutions(base, health, machine_nodes, prefer_same_cu=False)
    if not mapping:
        return base
    return [
        Location(node=mapping.get(l.node, l.node), cell=l.cell, spe=l.spe)
        for l in base
    ]


#: the machine :class:`HopAwareFabric` counts hops on (its graph stays unbuilt)
_MACHINE = RoadrunnerTopology()


class HopAwareFabric:
    """:class:`~repro.comm.cml.CellMessagePath`'s costs plus per-hop
    latency on internode messages.

    The flat ``internode`` path charges every off-node pair the same,
    which makes placement quality invisible to the DES.  This fabric
    adds ``hop_latency`` (default: the switch latency of
    :class:`~repro.network.latency.IBLatencyModel`) per crossbar beyond
    the first (the flat path already stands for a same-crossbar pair),
    counted by :func:`~repro.network.routing.hop_count` on the
    3,060-node machine; a node off it raises ``ValueError``.  So moving
    a tile across the machine costs simulated time — what the
    failure-aware vs. naive placement study measures.
    """

    def __init__(self, path: CellMessagePath | None = None,
                 hop_latency: float = 220e-9):
        if not 0 <= hop_latency < inf:
            raise ValueError(
                f"hop_latency must be finite and >= 0, got {hop_latency!r}")
        self.inner = path or CellMessagePath()
        self.hop_latency = hop_latency

    def one_way_time(self, src: Location, dst: Location, size: int) -> float:
        t = self.inner.one_way_time(src, dst, size)
        if src.node != dst.node:
            t += self.hop_latency * max(0, hop_count(_MACHINE, src.node, dst.node) - 1)
        return t


def boundary_classes(decomp: Decomposition2D) -> dict[str, int]:
    """Census of the decomposition's nearest-neighbour boundaries by
    communication class — how much traffic the tiling keeps local."""
    locations = spe_locations(decomp)
    path = CellMessagePath()
    census = {"intra-socket": 0, "intranode": 0, "internode": 0}
    for rank in range(decomp.size):
        pi, pj = decomp.coords(rank)
        neighbours = []
        if pi + 1 < decomp.npe_i:
            neighbours.append(decomp.rank_of(pi + 1, pj))
        if pj + 1 < decomp.npe_j:
            neighbours.append(decomp.rank_of(pi, pj + 1))
        for other in neighbours:
            census[path.classify(locations[rank], locations[other])] += 1
    return census
