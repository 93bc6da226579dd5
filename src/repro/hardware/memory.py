"""Memory-subsystem models: STREAM TRIAD and memtime (Table III).

Each of Roadrunner's three processor memory systems is modeled as a peak
bandwidth, a sustained-fraction for the TRIAD access pattern, and a
hierarchy of load-latency levels probed by the memtime pointer chase.

Mechanisms behind the sustained fractions (paper §IV-B):

* **Opteron** — DDR2-667 per-socket peak 10.7 GB/s; TRIAD's write stream
  incurs read-for-ownership traffic and DRAM page misses, roughly halving
  the sustainable rate (measured 5.41 GB/s).
* **PPE** — although the controller peaks at 25.6 GB/s, the in-order PPE
  sustains very few outstanding load misses, collapsing TRIAD to
  0.89 GB/s; the paper concludes the PPE "is a bottleneck and is best
  used for control functions".
* **SPE local store** — one pipelined 128-bit access per cycle gives a
  51.2 GB/s ceiling; loop and address-generation overhead of the TRIAD
  kernel yields 29.28 GB/s measured.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GB_S, KIB, MIB, NS

__all__ = ["MemoryLevel", "MemorySystem", "MEMORY_SYSTEMS"]


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the load-latency hierarchy seen by memtime."""

    name: str
    #: capacity in bytes; ``None`` marks the terminal (main-memory) level
    capacity_bytes: int | None
    #: dependent-load latency at this level, in seconds
    load_latency: float

    def holds(self, working_set_bytes: int) -> bool:
        """Whether a working set of this size fits in the level."""
        return self.capacity_bytes is None or working_set_bytes <= self.capacity_bytes


@dataclass(frozen=True)
class MemorySystem:
    """A processor's path to its directly addressable memory."""

    name: str
    peak_bandwidth: float
    #: fraction of peak the STREAM TRIAD kernel sustains
    triad_efficiency: float
    levels: tuple[MemoryLevel, ...]

    def __post_init__(self):
        if not 0 < self.triad_efficiency <= 1:
            raise ValueError(f"{self.name}: triad efficiency must be in (0, 1]")
        if self.peak_bandwidth <= 0:
            raise ValueError(f"{self.name}: peak bandwidth must be positive")
        if not self.levels or self.levels[-1].capacity_bytes is not None:
            raise ValueError(f"{self.name}: last level must be unbounded (main memory)")
        caps = [lv.capacity_bytes for lv in self.levels[:-1]]
        if any(c is None for c in caps) or caps != sorted(caps):
            raise ValueError(f"{self.name}: level capacities must increase")

    # -- STREAM ------------------------------------------------------------
    def stream_triad_bandwidth(self) -> float:
        """Sustained TRIAD bandwidth in B/s (Table III, column 1)."""
        return self.peak_bandwidth * self.triad_efficiency

    def stream_triad_time(self, array_elements: int, element_bytes: int = 8) -> float:
        """Time for one TRIAD pass ``a[i] = b[i] + s*c[i]`` over arrays of
        ``array_elements`` elements (3 streams touched)."""
        if array_elements < 0:
            raise ValueError("array_elements must be >= 0")
        moved = 3 * array_elements * element_bytes
        return moved / self.stream_triad_bandwidth()

    # -- memtime -----------------------------------------------------------
    def memtime_latency(self, working_set_bytes: int) -> float:
        """Dependent-load latency for a pointer chase over a working set
        of the given size (Table III, column 2, at main-memory size)."""
        if working_set_bytes <= 0:
            raise ValueError("working set must be positive")
        for level in self.levels:
            if level.holds(working_set_bytes):
                return level.load_latency
        raise AssertionError("unreachable: last level is unbounded")

    def memtime_curve(self, sizes: list[int]) -> list[tuple[int, float]]:
        """Latency at each working-set size — the classic memtime plot."""
        return [(s, self.memtime_latency(s)) for s in sizes]


#: The Opteron 2210 HE socket path to its DDR2-667 (paper Fig 1, Table III).
OPTERON_MEMORY = MemorySystem(
    name="Opteron",
    peak_bandwidth=10.7 * GB_S,
    triad_efficiency=5.41 / 10.7,
    levels=(
        MemoryLevel("L1D", 64 * KIB, 3 / 1.8e9),
        MemoryLevel("L2", 2 * MIB, 12 / 1.8e9),
        MemoryLevel("DDR2-667", None, 30.5 * NS),
    ),
)

#: The PPE's cache-based path to the Cell's 25.6 GB/s controller.
PPE_MEMORY = MemorySystem(
    name="PowerXCell 8i (PPE)",
    peak_bandwidth=25.6 * GB_S,
    triad_efficiency=0.89 / 25.6,
    levels=(
        MemoryLevel("L1D", 32 * KIB, 4 / 3.2e9),
        MemoryLevel("L2", 512 * KIB, 30 / 3.2e9),
        MemoryLevel("DDR2-800", None, 23.4 * NS),
    ),
)

#: The SPE's only directly addressable memory: its 256 KB local store.
#: One pipelined 128-bit access per cycle -> 51.2 GB/s ceiling.
SPE_LOCAL_STORE = MemorySystem(
    name="PowerXCell 8i (SPE)",
    peak_bandwidth=51.2 * GB_S,
    triad_efficiency=29.28 / 51.2,
    levels=(MemoryLevel("local store", None, 9.4 * NS),),
)

MEMORY_SYSTEMS: dict[str, MemorySystem] = {
    m.name: m for m in (OPTERON_MEMORY, PPE_MEMORY, SPE_LOCAL_STORE)
}
