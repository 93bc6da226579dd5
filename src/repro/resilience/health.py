"""The shared health ledger of a degraded machine.

:class:`FabricHealth` records which nodes and which fabric links are
currently failed.  It is deliberately passive — pure bookkeeping with no
simulator dependency — so one instance can be shared by all layers that
need a consistent view of the machine's state:

* the :class:`~repro.resilience.faults.FaultInjector` writes failures
  into it at simulated times;
* a :class:`~repro.resilience.policy.DeliveryPolicy` reads it per send
  attempt (a message to or from a failed node is never delivered);
* :class:`~repro.network.simfabric.ContendedFabric` consults it before
  moving payload bytes through a NIC;
* the degraded-routing functions in :mod:`repro.network.routing` take
  its ``failed_links`` snapshot to recompute routes and hop censuses.

Links are identified by the same graph-vertex pairs
:class:`~repro.network.topology.RoadrunnerTopology` wires — either two
:class:`~repro.network.crossbar.XbarId` crossbars or a ``("node", cu,
local)`` endpoint and its lower crossbar — canonicalized by
:func:`edge_key` so direction never matters.
"""

from __future__ import annotations

from typing import Hashable, Iterable

__all__ = ["FabricHealth", "edge_key"]


def edge_key(u: Hashable, v: Hashable) -> tuple:
    """Canonical undirected key of the link between vertices ``u``, ``v``.

    Vertices are the topology graph's tuples (``XbarId`` or ``("node",
    cu, local)``); tuple comparison makes the sorted pair a stable key.
    """
    return (u, v) if tuple(u) <= tuple(v) else (v, u)


class FabricHealth:
    """Mutable failed-node / failed-link state of the machine.

    All queries are O(1) set lookups; ``failed_links`` returns a
    frozenset snapshot suitable as an ``lru_cache`` key for the
    degraded-routing functions.
    """

    __slots__ = ("_failed_nodes", "_failed_links")

    def __init__(self):
        self._failed_nodes: set[int] = set()
        self._failed_links: set[tuple] = set()

    # -- nodes -------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Mark ``node`` (global id) failed.  Idempotent."""
        self._failed_nodes.add(node)

    def node_ok(self, node: int) -> bool:
        """Whether ``node`` is currently in service."""
        return node not in self._failed_nodes

    @property
    def failed_nodes(self) -> frozenset[int]:
        """Snapshot of the currently failed node ids."""
        return frozenset(self._failed_nodes)

    # -- links -------------------------------------------------------------
    def fail_link(self, u: Hashable, v: Hashable) -> None:
        """Mark the undirected link ``u — v`` failed.  Idempotent."""
        self._failed_links.add(edge_key(u, v))

    def link_ok(self, u: Hashable, v: Hashable) -> bool:
        """Whether the undirected link ``u — v`` is in service."""
        return edge_key(u, v) not in self._failed_links

    @property
    def failed_links(self) -> frozenset[tuple]:
        """Snapshot of the failed links (canonical edge keys) — the
        form the degraded-routing functions cache on."""
        return frozenset(self._failed_links)

    # -- aggregate ---------------------------------------------------------
    def fail_links(self, edges: Iterable[tuple]) -> None:
        """Fail several ``(u, v)`` links at once."""
        for u, v in edges:
            self.fail_link(u, v)

    @property
    def degraded(self) -> bool:
        """True once anything at all has failed."""
        return bool(self._failed_nodes or self._failed_links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FabricHealth {len(self._failed_nodes)} nodes, "
            f"{len(self._failed_links)} links failed>"
        )
