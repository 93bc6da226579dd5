"""Fig 13: Sweep3D weak scaling, 1 to 3,060 nodes: Opteron-only vs
Cell (measured) vs Cell (best achievable)."""

import time

from benchmarks.conftest import emit
from repro.comm.cml import INTERNODE_CELL_PATH, INTRANODE_CELL_PATH, CellMessagePath
from repro.core.artifacts import ARTIFACTS
from repro.core.report import format_table
from repro.hardware.cell import POWERXCELL_8I
from repro.sweep3d.cellport import grind_time
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.perfmodel import SweepMachineParams, WavefrontModel
from repro.sweep3d.placement import spe_locations

#: Reduced per-rank probe grid for the multi-node DES cross-check: the
#: physics fidelity of the full DES is already pinned at 32 ranks by
#: bench_des_scaling_crosscheck (exact match against the sequential
#: solver); this series probes the *timing model* at scale, so the
#: subgrid is sized for message/boundary behaviour, not flux work.
PROBE_INP = SweepInput(it=2, jt=2, kt=20, mk=2, mmi=2)

#: (node count, process array) of each DES point.  The largest point
#: runs 512 SPE ranks — 16x the 32-rank ceiling the suite's DES
#: cross-check had before the kernel fast paths — within the wall-clock
#: budget the old single point consumed (see docs/PERFORMANCE.md).
DES_POINTS = [(1, (8, 4)), (4, (16, 8)), (16, (32, 16))]


def test_fig13_weak_scaling(benchmark):
    fig13 = ARTIFACTS["fig13"]
    data = benchmark(fig13.data)
    opteron, measured, best = data["opteron"], data["cell_measured"], data["cell_best"]

    # Shapes the paper shows: all rise with scale; Cell < Opteron
    # everywhere; best <= measured; measured close to best at small
    # scale, ~2x apart at full scale.
    for curve in (opteron, measured, best):
        assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert all(m < o for m, o in zip(measured, opteron))
    assert all(b <= m for b, m in zip(best, measured))
    assert measured[0] / best[0] < 2.0
    assert 1.5 < measured[-1] / best[-1] < 2.2
    # Absolute endpoint: the Opteron-only curve tops out in the
    # figure's 0.6-0.8 s band.
    assert 0.5 < opteron[-1] < 0.8

    emit(fig13.render(data))


def test_fig13_des_crosscheck_at_scale():
    """Full DES runs up to 512 ranks bracketing the Fig 13 model.

    Every point executes the real distributed sweep — SimMPI messages
    over the location-aware fabric, flux computed by the vectorized
    kernel — and must land strictly above pure compute and at or below
    the conservative worst-link wavefront model the scaling study uses.
    """
    g = grind_time(POWERXCELL_8I)
    compute_only = (
        8 * PROBE_INP.k_blocks * PROBE_INP.block_angle_work() * g
    )
    rows = []
    des_times = []
    wall_total = 0.0
    for nodes, (pi, pj) in DES_POINTS:
        decomp = Decomposition2D(pi, pj)
        t0 = time.perf_counter()
        result = ParallelSweep(
            PROBE_INP,
            decomp,
            grind_time=g,
            fabric=CellMessagePath(),
            locations=spe_locations(decomp),
        ).run()
        wall = time.perf_counter() - t0
        wall_total += wall

        # Message census is fully determined by the decomposition: each
        # rank sends one I- and one J-surface per K-block per octant to
        # whichever downstream neighbours exist.
        boundaries = (pi - 1) * pj + pi * (pj - 1)
        assert result.messages == 8 * PROBE_INP.k_blocks * boundaries

        path = INTERNODE_CELL_PATH if nodes > 1 else INTRANODE_CELL_PATH
        model = WavefrontModel(
            PROBE_INP,
            decomp,
            SweepMachineParams(
                "worst link",
                grind_time=g,
                comm=path,
                per_message_overhead=path.zero_byte_latency,
                serial_fill_messages=True,
            ),
        ).iteration_time()
        assert compute_only < result.iteration_time <= model * 1.02
        des_times.append(result.iteration_time)
        rows.append(
            (
                f"{decomp.size} ranks ({pi}x{pj}, {nodes} nodes)",
                f"{result.iteration_time * 1e6:.1f} us",
                f"{model * 1e6:.1f} us",
                f"{result.messages}",
                f"{wall:.1f} s",
            )
        )

    # Pipeline fill grows with the process-array perimeter: strictly
    # more simulated time at every scale-up, but far sublinear in ranks.
    assert des_times == sorted(des_times)
    assert des_times[-1] / des_times[0] < 8.0
    # Wall-clock budget for the whole series (generous: the measured
    # total is ~12 s; the bound only catches order-of-magnitude
    # regressions of the DES or kernel hot paths).
    assert wall_total < 60.0

    emit(
        format_table(
            ["configuration", "DES iteration", "worst-link model",
             "messages", "wall-clock"],
            rows,
            title="Fig 13 cross-check: full DES vs analytic model at scale",
        )
    )
