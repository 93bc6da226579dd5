"""One CU's Voltaire ISR 9288 switch (paper §II-B, Fig 2 lower half).

The 288-port switch is 36 24-port crossbars in two levels: 24 lower and
12 upper.  Each lower crossbar spends its 24 ports as

* 8 ports down to nodes (22 crossbars carry 8 compute nodes; one carries
  4 compute + 4 I/O nodes; the last carries 8 I/O nodes),
* 12 ports up, one to each upper crossbar (a full fat tree within the
  CU; upper crossbars spend all 24 ports on the 24 lowers),
* 4 ports as uplinks toward the inter-CU switches.

That is 192 node-facing ports used and 24 x 4 = 96 uplinks per CU,
matching the paper's "utilizing 192 of the 288 available ports, yielding
... up to 96 up-links".
"""

from __future__ import annotations

from repro.network.crossbar import Graph, XbarId, add_link

__all__ = [
    "LOWER_XBARS",
    "UPPER_XBARS",
    "NODES_PER_LOWER_XBAR",
    "UPLINKS_PER_LOWER_XBAR",
    "COMPUTE_NODES_PER_CU",
    "IO_NODES_PER_CU",
    "build_cu_switch",
    "attach_cu_nodes",
    "lower_xbar_of_local_node",
]

LOWER_XBARS = 24
UPPER_XBARS = 12
NODES_PER_LOWER_XBAR = 8
UPLINKS_PER_LOWER_XBAR = 4
COMPUTE_NODES_PER_CU = 180
IO_NODES_PER_CU = 12

#: Lower crossbar carrying the 4 compute + 4 I/O mix.
MIXED_XBAR = 22
#: Lower crossbar carrying 8 I/O nodes only.
IO_XBAR = 23


def lower_xbar_of_local_node(local_index: int) -> int:
    """Lower-crossbar index of compute node ``local_index`` (0-179).

    Nodes 0-175 fill crossbars 0-21 eight at a time; nodes 176-179 sit
    on the mixed crossbar 22 alongside four I/O nodes.
    """
    if not 0 <= local_index < COMPUTE_NODES_PER_CU:
        raise ValueError(f"local node index {local_index} out of range 0-179")
    if local_index < 176:
        return local_index // NODES_PER_LOWER_XBAR
    return MIXED_XBAR


def build_cu_switch(graph: Graph, cu: int) -> None:
    """Add CU ``cu``'s 36 crossbars and intra-switch links to ``graph``:
    every lower crossbar wired to every upper one."""
    lowers = [XbarId("L", cu, i) for i in range(LOWER_XBARS)]
    uppers = [XbarId("U", cu, j) for j in range(UPPER_XBARS)]
    for low in lowers:
        graph[low] = list(uppers)
    for up in uppers:
        graph[up] = list(lowers)


def attach_cu_nodes(graph: Graph, cu: int, include_io: bool = True) -> None:
    """Attach CU ``cu``'s 180 compute nodes and, with ``include_io``,
    its 12 I/O nodes."""
    for local in range(COMPUTE_NODES_PER_CU):
        add_link(graph, ("node", cu, local),
                 XbarId("L", cu, lower_xbar_of_local_node(local)))
    if not include_io:
        return
    # I/O nodes: 4 on the mixed crossbar, 8 on the dedicated I/O crossbar.
    for ionum in range(IO_NODES_PER_CU):
        xbar_index = MIXED_XBAR if ionum < 4 else IO_XBAR
        add_link(graph, ("io", cu, ionum), XbarId("L", cu, xbar_index))
