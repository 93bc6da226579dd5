"""Cost model of the *previous* master/worker Cell port (Table IV).

In the earlier implementation ([20] in the paper), the PPE master
dispatched single I-dimension "pencils" of work to SPE workers; each
work unit required DMA-ing the full angular data *volume* to the SPE
and back, repeatedly, so the port was bound by the 25.6 GB/s memory
interface rather than by arithmetic (paper §V-B: "the performance was
bounded by the available memory bandwidth, because the volume was large
relative to the local store").

The model charges ``volume_doubles_per_cell_angle`` of main-memory
traffic per cell-angle per octant sweep and takes the larger of the
bandwidth time and the compute time.  The traffic constant is
calibrated to the published 1.3 s (Cell BE, 50x50x50, MK=10) and makes
a falsifiable prediction the paper implies but never states: because
the port is bandwidth-bound, moving it to the PowerXCell 8i would *not*
have helped (same 25.6 GB/s), unlike the compute-bound SPE-centric port
with its 1.9x gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cell import CELL_BE, CellVariant
from repro.sweep3d.cellport import grind_time
from repro.sweep3d.input import SweepInput

__all__ = ["MasterWorkerModel"]


@dataclass(frozen=True)
class MasterWorkerModel:
    """Per-iteration time of the master/worker port on one Cell."""

    variant: CellVariant = CELL_BE
    #: doubles moved between main memory and local store per cell-angle
    #: — the repeated-volume traffic of the pencil scheme (full angular
    #: working set in and out for every octant pass, plus upstream
    #: neighbour pencils).  Calibrated to Table IV's 1.3 s; the model is
    #: then bandwidth-bound by a ~3x margin over compute, matching §V-B.
    volume_doubles_per_cell_angle: int = 80
    #: extra per-pencil dispatch overhead (PPE mailbox round trip), s
    pencil_dispatch_overhead: float = 3e-6

    def traffic_bytes(self, inp: SweepInput) -> int:
        """Main-memory bytes moved per iteration per SPE subgrid."""
        return inp.angle_work * 8 * self.volume_doubles_per_cell_angle

    def bandwidth_time(self, inp: SweepInput) -> float:
        """Time for the iteration's DMA traffic at the SPE's 1/8 share
        of the 25.6 GB/s controller."""
        per_spe_bw = self.variant.memory_bandwidth / 8
        return self.traffic_bytes(inp) / per_spe_bw

    def compute_time(self, inp: SweepInput) -> float:
        """Arithmetic time (same inner loop as the SPE-centric port)."""
        return inp.angle_work * grind_time(self.variant)

    def dispatch_time(self, inp: SweepInput) -> float:
        """Master-side pencil dispatch overhead per iteration."""
        pencils = inp.jt * inp.kt * 8  # one pencil per (j, k, octant)
        return pencils * self.pencil_dispatch_overhead

    def iteration_time(self, inp: SweepInput) -> float:
        """One source iteration: bandwidth-bound max of the streams."""
        return (
            max(self.bandwidth_time(inp), self.compute_time(inp))
            + self.dispatch_time(inp)
        )

    # -- DES cross-validation ----------------------------------------------
    def simulate_iteration(self, inp: SweepInput, pencils: int = 256) -> float:
        """Run the pencil scheme on the discrete-event simulator.

        Eight SPE workers each process their share of ``pencils`` work
        units: DMA the pencil's volume in through the shared 25.6 GB/s
        controller, compute, DMA results out.  The PPE master charges
        its dispatch overhead per pencil.  With the same constants as
        the analytic model, the simulated iteration must come out
        bandwidth-bound at (approximately) the same time — the DES
        derivation of §V-B's "bounded by the available memory
        bandwidth".

        A test oracle: no command runs it.
        ``tests/test_sweep3d_models.py`` compares it with
        :meth:`iteration_time` and :meth:`bandwidth_time`.
        """
        from repro.hardware.dma import DMAEngine, SharedMemoryController
        from repro.sim.engine import Simulator
        from repro.sim.resources import Store

        if pencils < 8:
            raise ValueError("need at least one pencil per SPE")
        sim = Simulator()
        engine = DMAEngine(
            name="mw-dma", setup_latency=0.0,
            bandwidth=self.variant.memory_bandwidth,
        )
        controller = SharedMemoryController(sim, engine)
        # Per-SPE totals, split across this SPE's pencils.  Each of the
        # 8 SPEs runs the same subgrid (Table IV's per-SPE reading), so
        # total controller traffic is 8x one subgrid's.
        per_spe_pencils = pencils // 8
        dma_per_pencil = self.traffic_bytes(inp) / per_spe_pencils
        compute_per_pencil = self.compute_time(inp) / per_spe_pencils
        dispatch_total = self.dispatch_time(inp)
        queue = Store(sim)

        def master(sim):
            per_dispatch = dispatch_total / pencils
            for _ in range(pencils):
                yield sim.timeout(per_dispatch)
                queue.put("pencil")
            for _ in range(8):
                queue.put(None)  # poison pills

        def worker(sim):
            while True:
                item = yield queue.get()
                if item is None:
                    return
                yield controller.dma(dma_per_pencil / 2)   # volume in
                yield sim.timeout(compute_per_pencil)
                yield controller.dma(dma_per_pencil / 2)   # results out

        sim.process(master(sim), name="ppe-master")
        for w in range(8):
            sim.process(worker(sim), name=f"spe-worker{w}")
        sim.run()
        return sim.now
