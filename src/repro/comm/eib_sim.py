"""Discrete-event model of the Element Interconnect Bus.

The EIB is four unidirectional 16-byte-wide rings (two per rotation
direction) clocked at half the core clock; each ring can carry up to
three simultaneous non-overlapping transfers.  The paper quotes the
controller-visible figure — 96 bytes per core cycle in aggregate —
which this model reproduces: 4 rings x 16 B x 1.6 GHz = 102.4 GB/s of
raw ring capacity, arbitrated down to ~96 B/cycle by the data
arbiter's slot accounting.

The DES version materializes ring slots as FIFO resources and ring
bandwidth as fair-shared links, so concurrent SPE-to-SPE DMAs exhibit
both effects the analytic :class:`repro.comm.eib.EIBRing` asserts:
aggregate capping and per-pair degradation under load.
"""

from __future__ import annotations

from math import inf

from repro.sim.engine import Event, Simulator
from repro.sim.resources import BandwidthLink, Resource

__all__ = ["EIBSim"]


class EIBSim:
    """One Cell's on-chip ring fabric on the simulator."""

    RINGS = 4
    SLOTS_PER_RING = 3
    RING_BYTES_PER_CYCLE = 16
    #: the rings clock at half the 3.2 GHz core clock
    RING_CLOCK_HZ = 1.6e9
    #: per-transfer arbitration latency (command phase on the address ring)
    ARBITRATION_LATENCY = 50e-9

    def __init__(self, sim: Simulator):
        self.sim = sim
        # 16 B per 1.6 GHz ring cycle: the canonical 25.6 GB/s per ring.
        ring_bw = self.RING_BYTES_PER_CYCLE * self.RING_CLOCK_HZ
        self._rings = [
            BandwidthLink(sim, ring_bw, name=f"eib-ring-{i}")
            for i in range(self.RINGS)
        ]
        self._slots = [
            Resource(sim, capacity=self.SLOTS_PER_RING) for _ in range(self.RINGS)
        ]
        self._next_ring = 0
        #: completed transfer count
        self.transfers_completed = 0

    @property
    def aggregate_bandwidth(self) -> float:
        """Raw capacity of all four rings, B/s."""
        return sum(r.bandwidth for r in self._rings)

    def transfer(self, size_bytes: int) -> Event:
        """Move ``size_bytes`` between two on-chip units.

        Returns the completion event.  Rings are assigned round-robin
        (the real arbiter picks by path non-overlap; round-robin gives
        the same steady-state sharing for symmetric traffic).
        """
        if not 0 <= size_bytes < inf:
            raise ValueError(f"size must be finite and >= 0, got {size_bytes!r}")
        done = Event(self.sim)
        if size_bytes == 0:
            done.succeed(self.sim.now)
            return done
        ring_idx = self._next_ring
        self._next_ring = (self._next_ring + 1) % self.RINGS
        ring = self._rings[ring_idx]
        slots = self._slots[ring_idx]

        def mover(sim):
            req = slots.request()
            yield req
            try:
                yield sim.timeout(self.ARBITRATION_LATENCY)
                yield ring.transfer(size_bytes)
            finally:
                slots.release(req)
            self.transfers_completed += 1
            return sim.now

        proc = self.sim.process(mover(self.sim), name=f"eib-xfer-r{ring_idx}")
        proc.callbacks.append(
            lambda evt: done.succeed(evt.value) if evt.ok else done.fail(evt.value)
        )
        return done
