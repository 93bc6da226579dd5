"""Extension studies beyond the paper's evaluation: multigroup cost,
strong scaling, and application-level energy — the analyses a
production user of the machine model runs next."""

import pytest

from benchmarks.conftest import emit
from repro.comm.cml import INTERNODE_CELL_PATH
from repro.core.artifacts import ARTIFACTS
from repro.core.report import format_table
from repro.sweep3d.cellport import grind_time
from repro.hardware.cell import POWERXCELL_8I
from repro.sweep3d.input import SweepInput
from repro.sweep3d.multigroup import MultigroupInput, solve_multigroup
from repro.sweep3d.perfmodel import SweepMachineParams
from repro.sweep3d.strongscaling import strong_scaling_series, sweet_spot


def test_extension_multigroup_cost(benchmark):
    """G downscatter-coupled groups cost ~G single-group sweeps."""
    base = SweepInput(it=6, jt=6, kt=6, mk=2, mmi=6, sigma_t=1.0, sigma_s=0.0)

    def run():
        mg = MultigroupInput(
            base,
            sigma_t=(1.0, 1.5, 2.0),
            sigma_s=((0.4, 0.0, 0.0), (0.3, 0.6, 0.0), (0.1, 0.4, 0.9)),
            q=(1.0, 0.2, 0.0),
        )
        return solve_multigroup(mg, max_iterations=60)

    result = benchmark(run)
    assert result.converged
    assert result.groups == 3
    # Every group's sweep obeys the balance invariant.
    for r in result.group_results:
        assert r.balance_residual < 1e-10
    # Downscatter populates every group even where q = 0.
    assert result.phi[2].max() > 0

    emit(
        format_table(
            ["group", "peak flux", "iterations", "balance residual"],
            [
                (g, f"{result.phi[g].max():.4f}", r.iterations,
                 f"{r.balance_residual:.1e}")
                for g, r in enumerate(result.group_results)
            ],
            title="Extension: 3-group downscatter transport on the §V kernel",
        )
    )


def test_extension_strong_scaling(benchmark):
    """Fixed global problem on the measured Cell machine: a sweet spot
    appears where deeper pipelines stop paying for smaller blocks."""
    params = SweepMachineParams(
        "cell measured",
        grind_time=grind_time(POWERXCELL_8I),
        comm=INTERNODE_CELL_PATH,
        per_message_overhead=INTERNODE_CELL_PATH.zero_byte_latency,
        serial_fill_messages=True,
    )
    counts = [1, 16, 64, 256, 1024, 4096, 16384]

    def run():
        return strong_scaling_series((128, 128, 256), counts, params)

    points = benchmark(run)
    spot = sweet_spot(points)
    speedups = [p.speedup for p in points]
    # Speedup rises, then the curve flattens/reverses past the spot.
    assert speedups[1] > 4
    assert spot.ranks < counts[-1]
    assert points[-1].efficiency < 0.2

    emit(
        format_table(
            ["ranks", "subgrid", "time (s)", "speedup", "efficiency"],
            [
                (p.ranks, "x".join(map(str, p.subgrid)),
                 f"{p.iteration_time:.4f}", f"{p.speedup:.1f}",
                 f"{p.efficiency:.1%}")
                for p in points
            ],
            title=(
                "Extension: strong scaling of a fixed 128x128x256 problem "
                f"(sweet spot: {spot.ranks} ranks)"
            ),
        )
    )


def test_extension_energy(benchmark):
    """Accelerators win on energy, not just time (idle Cells burn)."""
    energy = ARTIFACTS["energy"]
    advantages = benchmark(energy.data)
    assert list(advantages) == ["1", "64", "1024", "3060"]
    for n, adv in advantages.items():
        assert adv["energy_measured"] > 1.0, n
        assert adv["energy_measured"] < adv["time_measured"]

    emit(energy.render(advantages))
