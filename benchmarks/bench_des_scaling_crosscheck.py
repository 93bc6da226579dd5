"""End-to-end cross-check: a reduced Fig 13-style point executed as a
FULL discrete-event run — real flux, SPE placement, location-aware
transports — against the analytic wavefront model for the same input.

The model charges every boundary the slowest link present (the
conservative choice the scaling study uses at 3,060 nodes); the DES
resolves the actual locality mix, so it must land at or below the
model but well above pure compute."""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.comm.cml import INTRANODE_CELL_PATH, CellMessagePath
from repro.core.report import format_table
from repro.sweep3d.cellport import grind_time
from repro.hardware.cell import POWERXCELL_8I
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.perfmodel import SweepMachineParams, WavefrontModel
from repro.sweep3d.placement import spe_locations
from repro.sweep3d.quadrature import make_angle_set
from repro.sweep3d.solver import sweep_all_octants

#: Reduced weak-scaling input: the paper's 5x5 pencil footprint with a
#: shorter K extent so the DES stays quick.
INP = SweepInput(it=5, jt=5, kt=40, mk=20, mmi=6)


def _run_des():
    decomp = Decomposition2D(8, 4)  # one node's 32 SPEs
    sweep = ParallelSweep(
        INP,
        decomp,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=CellMessagePath(),
        locations=spe_locations(decomp),
    )
    return decomp, sweep.run()


def test_des_scaling_crosscheck(benchmark):
    decomp, result = benchmark(_run_des)

    # 1. The physics is exact.
    global_inp = INP.with_subgrid(INP.it * 8, INP.jt * 4, INP.kt)
    src = np.full((global_inp.it, global_inp.jt, global_inp.kt), INP.q)
    expected, _, _ = sweep_all_octants(global_inp, src, make_angle_set(INP.mmi))
    np.testing.assert_allclose(result.phi, expected, rtol=1e-12, atol=1e-13)

    # 2. The timing brackets: pure compute <= DES <= worst-link model.
    grind = grind_time(POWERXCELL_8I)
    compute_only = 8 * INP.k_blocks * INP.block_angle_work() * grind
    model = WavefrontModel(
        INP,
        decomp,
        SweepMachineParams(
            "cell measured (one node)",
            grind_time=grind,
            comm=INTRANODE_CELL_PATH,
            per_message_overhead=INTRANODE_CELL_PATH.zero_byte_latency,
            serial_fill_messages=True,
        ),
    ).iteration_time()
    assert compute_only < result.iteration_time <= model * 1.02
    assert result.iteration_time > 0.3 * model

    emit(
        format_table(
            ["quantity", "value"],
            [
                ("ranks", f"{decomp.size} SPEs (8x4 tile, one triblade)"),
                ("pure compute", f"{compute_only * 1e3:.2f} ms"),
                ("DES (real flux + placement)", f"{result.iteration_time * 1e3:.2f} ms"),
                ("worst-link analytic model", f"{model * 1e3:.2f} ms"),
                ("measured efficiency", f"{result.parallel_efficiency:.1%}"),
                ("messages", result.messages),
            ],
            title="End-to-end cross-check: DES vs analytic, one simulated node",
        )
    )
