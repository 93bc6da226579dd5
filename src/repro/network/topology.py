"""The assembled Roadrunner fabric: 17 CU switches + 8 inter-CU switches.

:class:`RoadrunnerTopology` owns the port-by-port adjacency lists and the
node-naming scheme.  Compute nodes are addressed both globally
(``0 .. 3059``) and as ``(cu, local)`` pairs; CU membership follows the
paper (CU *c* holds nodes ``180c .. 180c+179``).
"""

from __future__ import annotations

from functools import cached_property

from repro.network.crossbar import Graph, XbarId
from repro.network.cu_switch import (
    COMPUTE_NODES_PER_CU,
    attach_cu_nodes,
    build_cu_switch,
    lower_xbar_of_local_node,
)
from repro.network.intercu import (
    FIRST_SIDE_CUS,
    INTERCU_SWITCHES,
    build_intercu_switch,
    wire_cu_uplinks,
    wire_intercu_chains,
)

__all__ = ["NodeId", "RoadrunnerTopology", "DEFAULT_CU_COUNT"]

DEFAULT_CU_COUNT = 17

#: A compute node is globally identified by an int in [0, cu_count*180).
NodeId = int


class RoadrunnerTopology:
    """The full Roadrunner InfiniBand fabric.

    Parameters
    ----------
    cu_count:
        Number of Connected Units (17 for Roadrunner; the design allows
        up to 24, with CUs beyond index 11 hanging off the third level
        of the inter-CU switches).
    include_io:
        Whether to attach each CU's 12 Panasas I/O nodes.
    """

    def __init__(self, cu_count: int = DEFAULT_CU_COUNT, include_io: bool = True):
        if not 1 <= cu_count <= 24:
            raise ValueError(f"cu_count must be in 1..24, got {cu_count}")
        self.cu_count = cu_count
        self.include_io = include_io
        self.nodes_per_cu = COMPUTE_NODES_PER_CU

    @property
    def node_count(self) -> int:
        """Total compute nodes (3,060 for the full system)."""
        return self.cu_count * self.nodes_per_cu

    @cached_property
    def graph(self) -> Graph:
        """The port-by-port fabric graph (built lazily; do not mutate).

        Each vertex maps to its neighbour list.  Vertices run per CU
        (24 ``L``, 12 ``U``, 180 compute and 12 I/O nodes), then per
        inter-CU switch (``F``, ``M``, ``T`` for each index).  Neighbours
        follow the wiring order, with the F-M-T chains wired last; the
        degraded-routing searches break ties between equal-cost paths
        by this order, so changing it moves routes.
        """
        g: Graph = {}
        for cu in range(self.cu_count):
            build_cu_switch(g, cu)
            attach_cu_nodes(g, cu, include_io=self.include_io)
        if self.cu_count > 1:
            for s in range(INTERCU_SWITCHES):
                build_intercu_switch(g, s)
            for cu in range(self.cu_count):
                wire_cu_uplinks(g, cu)
            for s in range(INTERCU_SWITCHES):
                wire_intercu_chains(g, s)
        return g

    # -- addressing ---------------------------------------------------------
    def split(self, node: NodeId) -> tuple[int, int]:
        """Global node id -> ``(cu, local)``."""
        if not 0 <= node < self.node_count:
            raise ValueError(f"node {node} out of range 0..{self.node_count - 1}")
        return divmod(node, self.nodes_per_cu)

    def join(self, cu: int, local: int) -> NodeId:
        """``(cu, local)`` -> global node id."""
        if not 0 <= cu < self.cu_count:
            raise ValueError(f"CU {cu} out of range")
        if not 0 <= local < self.nodes_per_cu:
            raise ValueError(f"local index {local} out of range")
        return cu * self.nodes_per_cu + local

    def graph_node(self, node: NodeId) -> tuple:
        """The graph vertex for a global compute-node id."""
        cu, local = self.split(node)
        return ("node", cu, local)

    def lower_xbar(self, node: NodeId) -> XbarId:
        """The lower crossbar a compute node hangs off."""
        cu, local = self.split(node)
        return XbarId("L", cu, lower_xbar_of_local_node(local))

    def same_side(self, cu_a: int, cu_b: int) -> bool:
        """Whether two CUs hang off the same level of the inter-CU
        switches (both among the first 12, or both among the rest)."""
        return (cu_a < FIRST_SIDE_CUS) == (cu_b < FIRST_SIDE_CUS)

    # -- structural invariants -----------------------------------------------
    def port_usage(self) -> dict[XbarId, int]:
        """Degree (ports in use) of every crossbar in the fabric."""
        return {
            v: len(neighbours)
            for v, neighbours in self.graph.items()
            if isinstance(v, XbarId)
        }

    def validate_ports(self) -> None:
        """Assert no crossbar exceeds its 24 ports."""
        from repro.network.crossbar import CROSSBAR_PORTS

        for xbar, used in self.port_usage().items():
            if used > CROSSBAR_PORTS:
                raise AssertionError(f"{xbar} uses {used} > {CROSSBAR_PORTS} ports")
