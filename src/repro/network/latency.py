"""End-to-end InfiniBand latency over the fabric (Fig 10).

A zero-byte MPI message from rank 0 costs a fixed software/NIC overhead
plus ~220 ns per crossbar traversed (§II-C).  The constants reproduce
Fig 10's staircase: 2.5 µs to crossbar neighbours (1 hop), ~3 µs within
the CU (3 hops), ~3.5 µs to the first 12 CUs (5 hops), just under 4 µs
to the far-side CUs (7 hops).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.network.routing import hop_count, hop_vector
from repro.network.topology import NodeId, RoadrunnerTopology
from repro.units import NS, US

__all__ = ["IBLatencyModel"]


@dataclass(frozen=True)
class IBLatencyModel:
    """Per-message latency = software overhead + hops x switch latency
    + size / bandwidth."""

    #: fixed MPI + HCA + PCIe overhead per message, seconds
    software_overhead: float = 2.28 * US
    #: per-crossbar-hop store-and-forward latency (paper: ~220 ns)
    hop_latency: float = 220 * NS
    #: large-message bandwidth, B/s (980 MB/s default Open MPI;
    #: 1.6 GB/s with pinned buffers — §IV-C)
    bandwidth: float = 980e6

    def __post_init__(self):
        if not (0 <= self.software_overhead < inf and 0 <= self.hop_latency < inf):
            raise ValueError("IB latencies must be finite and >= 0")
        if not 0 < self.bandwidth < inf:
            raise ValueError("IB bandwidth must be finite and positive")

    def zero_byte_latency(self, topo: RoadrunnerTopology, src: NodeId, dst: NodeId) -> float:
        """Zero-byte one-way latency between two compute nodes."""
        if src == dst:
            return 0.0
        return self.software_overhead + hop_count(topo, src, dst) * self.hop_latency

    def message_latency(
        self, topo: RoadrunnerTopology, src: NodeId, dst: NodeId, size_bytes: int
    ) -> float:
        """One-way latency of a ``size_bytes`` message."""
        if not 0 <= size_bytes < inf:
            raise ValueError(f"message size must be finite and >= 0, got {size_bytes!r}")
        base = self.zero_byte_latency(topo, src, dst)
        return base + size_bytes / self.bandwidth

    def latency_map(self, topo: RoadrunnerTopology, src: NodeId = 0) -> list[float]:
        """Fig 10: zero-byte latency from ``src`` to every node, by id.

        Vectorized over :func:`repro.network.routing.hop_vector` — one
        numpy pass instead of a Python loop over 3,060 destinations.
        """
        hops = hop_vector(topo, src)
        lat = self.software_overhead + hops * self.hop_latency
        lat[src] = 0.0
        return lat.tolist()
