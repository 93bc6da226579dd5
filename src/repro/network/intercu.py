"""The eight inter-CU switches and their CU uplink wiring (§II-C).

Each inter-CU switch is three levels of 12 crossbars.  First-level
crossbar ``F(s, j)`` offers one port to each of the first 12 CUs;
third-level crossbar ``T(s, j)`` offers one port to each of the last 5
CUs; middle crossbar ``M(s, j)`` bridges its first- and third-level
partners (``F(s,j) - M(s,j) - T(s,j)``), "allowing for communication
between the two sets of CUs".

**Uplink wiring.**  Lower crossbar ``i`` of every CU has 4 uplink ports
``k = 0..3``; uplink ``k`` runs to inter-CU switch ``s = (4i + k) mod 8``
at port ``j = i // 2`` of the appropriate level (F for the first 12 CUs,
T for the last 5).  Consequences, all checked against the paper:

* each CU sends exactly 12 uplinks to each of the 8 switches (96 total);
* even-indexed lower crossbars reach switches 0-3, odd ones 4-7, so a
  given ``F(s, j)``/``T(s, j)`` port maps back to exactly one lower
  crossbar per CU (``i = 2j`` or ``2j + 1``);
* two nodes in different CUs are 3 crossbar-hops apart iff they sit on
  same-index lower crossbars — exactly Table I's 88-destination row.

The overall design supports up to 24 CUs (12 + 12 ports per F level);
Roadrunner populates 17.
"""

from __future__ import annotations

from repro.network.crossbar import Graph, XbarId, add_link

__all__ = [
    "INTERCU_SWITCHES",
    "XBARS_PER_LEVEL",
    "FIRST_SIDE_CUS",
    "build_intercu_switch",
    "wire_cu_uplinks",
    "wire_intercu_chains",
    "uplink_target",
    "uplink_edges",
]

INTERCU_SWITCHES = 8
XBARS_PER_LEVEL = 12
#: CUs 0-11 hang off the first level, CUs 12+ off the third level.
FIRST_SIDE_CUS = 12


def build_intercu_switch(graph: Graph, s: int) -> None:
    """Add inter-CU switch ``s``'s 36 crossbars, unwired: ``F``, ``M``
    and ``T`` for each index ``j``."""
    for j in range(XBARS_PER_LEVEL):
        for level in "FMT":
            graph[XbarId(level, s, j)] = []


def wire_intercu_chains(graph: Graph, s: int) -> None:
    """Wire inter-CU switch ``s``'s ``F(s,j) - M(s,j) - T(s,j)`` chains.

    The topology wires them after the CU uplinks, so each ``F`` or ``T``
    crossbar lists its ``M`` partner last.
    """
    for j in range(XBARS_PER_LEVEL):
        middle = XbarId("M", s, j)
        add_link(graph, XbarId("F", s, j), middle)
        add_link(graph, middle, XbarId("T", s, j))


def uplink_target(cu: int, lower_xbar: int, uplink: int) -> XbarId:
    """The inter-CU crossbar reached by ``uplink`` (0-3) of lower
    crossbar ``lower_xbar`` in CU ``cu``."""
    if not 0 <= uplink < 4:
        raise ValueError(f"uplink index {uplink} out of range 0-3")
    if not 0 <= lower_xbar < 24:
        raise ValueError(f"lower crossbar {lower_xbar} out of range 0-23")
    s = (4 * lower_xbar + uplink) % INTERCU_SWITCHES
    j = lower_xbar // 2
    level = "F" if cu < FIRST_SIDE_CUS else "T"
    return XbarId(level, s, j)


def wire_cu_uplinks(graph: Graph, cu: int) -> None:
    """Connect all 96 uplinks of CU ``cu`` to the inter-CU switches."""
    for low, target in uplink_edges(cu):
        add_link(graph, low, target)


def uplink_edges(cu: int) -> list[tuple[XbarId, XbarId]]:
    """CU ``cu``'s 96 uplink edges as ``(lower, inter-CU)`` vertex pairs.

    These are the edges :func:`wire_cu_uplinks` adds — the inter-CU
    links a fault study fails one at a time (degraded hop census, lost
    bisection bandwidth), in deterministic ``(lower crossbar, uplink)``
    order.
    """
    return [
        (XbarId("L", cu, i), uplink_target(cu, i, k))
        for i in range(24)
        for k in range(4)
    ]
