"""Panasas parallel-filesystem model (paper §II-B).

Each CU connects 12 I/O nodes to the Panasas PFS through the same
Voltaire switch as the compute nodes (4 on the mixed lower crossbar,
8 on the dedicated I/O crossbar).  The model captures the aggregate
streaming capability — enough to answer the question the resilience
models ask: how long to write a checkpoint of some fraction of memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.cu_switch import IO_NODES_PER_CU
from repro.units import MB_S, MS

__all__ = ["IoNodeSpec", "PanasasModel"]


@dataclass(frozen=True)
class IoNodeSpec:
    """One I/O node's streaming capability."""

    #: sustained rate to the PFS per I/O node, B/s (IB-attached, but the
    #: disk shelves bound it well below the 2 GB/s link)
    bandwidth: float = 400 * MB_S
    #: per-request software latency (metadata + striping setup)
    request_latency: float = 2 * MS

    def __post_init__(self):
        if self.bandwidth <= 0 or self.request_latency < 0:
            raise ValueError("invalid I/O node parameters")


@dataclass(frozen=True)
class PanasasModel:
    """The file system as seen by one or more CUs."""

    cu_count: int = 17
    node: IoNodeSpec = IoNodeSpec()

    def __post_init__(self):
        if self.cu_count < 1:
            raise ValueError("cu_count must be >= 1")

    @property
    def io_node_count(self) -> int:
        return self.cu_count * IO_NODES_PER_CU

    @property
    def aggregate_bandwidth(self) -> float:
        """Full-system streaming rate, B/s."""
        return self.io_node_count * self.node.bandwidth

    def checkpoint_time(self, memory_fraction: float = 0.5) -> float:
        """Time to write ``memory_fraction`` of system memory — the
        classic petascale checkpoint question."""
        if not 0 < memory_fraction <= 1:
            raise ValueError("memory_fraction must be in (0, 1]")
        from repro.hardware.node import TRIBLADE
        from repro.network.cu_switch import COMPUTE_NODES_PER_CU

        total_memory = TRIBLADE.memory_bytes * self.cu_count * COMPUTE_NODES_PER_CU
        payload = memory_fraction * total_memory
        return self.node.request_latency + payload / self.aggregate_bandwidth
