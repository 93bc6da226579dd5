"""Memory Flow Controller (MFC) DMA engine model.

SPEs reach main memory only through explicit MFC DMA transfers between
local store and the Cell's memory controller (paper §II-A).  The model
captures the three costs that matter to the Sweep3D port: per-command
setup, the 16 KB hardware transfer-size limit (larger requests are split
into list elements), and the 25.6 GB/s controller bandwidth shared by all
eight SPEs on the chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.sim.engine import Event, Simulator
from repro.sim.resources import BandwidthLink
from repro.units import GB_S, KIB, NS

__all__ = ["DMAEngine", "MFC_DMA", "SharedMemoryController"]

#: Hardware limit of a single MFC DMA command.
MFC_MAX_TRANSFER = 16 * KIB


@dataclass(frozen=True)
class DMAEngine:
    """Analytic cost model of one SPE's MFC.

    ``transfer_time(size)`` assumes an otherwise idle memory controller;
    contention across SPEs is modeled separately by
    :class:`SharedMemoryController`.
    """

    name: str
    setup_latency: float
    bandwidth: float
    max_transfer: int = MFC_MAX_TRANSFER
    #: number of in-flight commands the MFC queue supports
    queue_depth: int = 16

    def __post_init__(self):
        if self.setup_latency < 0 or self.bandwidth <= 0 or self.max_transfer <= 0:
            raise ValueError(f"invalid DMA engine parameters for {self.name!r}")

    def commands_for(self, size_bytes: int) -> int:
        """Number of hardware DMA commands a request of ``size`` needs."""
        if not 0 <= size_bytes < inf:
            raise ValueError(f"size must be finite and >= 0, got {size_bytes!r}")
        if size_bytes == 0:
            return 0
        return -(-size_bytes // self.max_transfer)

    def transfer_time(self, size_bytes: int, pipelined: bool = True) -> float:
        """Seconds to move ``size_bytes`` between local store and memory.

        With ``pipelined`` (double-buffered list DMA) only the first
        command's setup is exposed; otherwise setup is paid per command.
        """
        cmds = self.commands_for(size_bytes)
        if cmds == 0:
            return 0.0
        setups = self.setup_latency if pipelined else cmds * self.setup_latency
        return setups + size_bytes / self.bandwidth

    def effective_bandwidth(self, size_bytes: int, pipelined: bool = True) -> float:
        """Achieved B/s for one request of the given size."""
        if size_bytes <= 0:
            return 0.0
        return size_bytes / self.transfer_time(size_bytes, pipelined=pipelined)


#: The PowerXCell 8i MFC: ~200 ns command issue/completion overhead and
#: the 25.6 GB/s controller as the per-transfer ceiling.
MFC_DMA = DMAEngine(
    name="PowerXCell 8i MFC",
    setup_latency=200 * NS,
    bandwidth=25.6 * GB_S,
)


class SharedMemoryController:
    """DES-backed memory controller shared by the SPEs (and PPE) of one
    Cell: concurrent DMA streams fair-share the 25.6 GB/s.

    Used by the simulated Sweep3D Cell port to expose the bandwidth-bound
    behaviour the paper attributes to the earlier master/worker
    implementation (§V-B).
    """

    def __init__(self, sim: Simulator, engine: DMAEngine = MFC_DMA):
        self.sim = sim
        self.engine = engine
        self.link = BandwidthLink(sim, engine.bandwidth, name="cell-mc")

    def dma(self, size_bytes: int) -> Event:
        """Start a DMA of ``size_bytes``; returns its completion event.

        The setup latency precedes the bandwidth phase; each request is a
        separate stream into the fair-shared controller.
        """
        done = Event(self.sim)
        if size_bytes == 0:
            done.succeed(0.0)
            return done

        def runner(sim):
            yield sim.timeout(self.engine.setup_latency)
            yield self.link.transfer(size_bytes)
            return sim.now

        proc = self.sim.process(runner(self.sim), name="dma")
        proc.callbacks.append(
            lambda evt: done.succeed(evt.value) if evt.ok else done.fail(evt.value)
        )
        return done
