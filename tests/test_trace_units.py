"""Tests for unit helpers, the run's MPI record, and parallel-efficiency stats."""

import pytest

from repro.units import (
    GB_S,
    GFLOPS,
    GHZ,
    GIB,
    MB_S,
    MS,
    NS,
    PFLOPS,
    TFLOPS,
    US,
    to_gb_s,
    to_gflops,
    to_mb_s,
    to_ms,
    to_pflops,
    to_tflops,
    to_us,
)


# --- units ------------------------------------------------------------------

def test_time_conversions():
    assert to_us(1.5 * US) == pytest.approx(1.5)
    assert to_ms(2 * MS) == pytest.approx(2.0)
    assert 1000 * NS == pytest.approx(1 * US)


def test_rate_conversions():
    assert to_mb_s(5 * MB_S) == pytest.approx(5.0)
    assert to_gb_s(2.5 * GB_S) == pytest.approx(2.5)
    assert to_gflops(3 * GFLOPS) == pytest.approx(3.0)
    assert to_tflops(1.5 * TFLOPS) == pytest.approx(1.5)
    assert to_pflops(1.38 * PFLOPS) == pytest.approx(1.38)


def test_binary_vs_decimal_sizes():
    assert GIB == 2**30
    assert 1 * GHZ == 1e9


# --- the run's MPI record ---------------------------------------------------

def test_mpi_tracer_integration():
    """One blocking send and its receive each close one span on the
    obs recorder, the channel every run is recorded through."""
    from repro.comm.mpi import Location, SimMPI, UniformFabric
    from repro.comm.transport import Transport
    from repro.obs import ObsRecorder
    from repro.sim import Simulator

    sim = Simulator()
    rec = ObsRecorder()
    comm = SimMPI(
        sim,
        UniformFabric(Transport("t", latency=1e-6, bandwidth=1e9)),
        [Location(node=i) for i in range(2)],
        obs=rec,
    )

    def body(rank):
        if rank.index == 0:
            yield from rank.send(1, size=100)
        else:
            yield from rank.recv()

    for r in range(2):
        sim.process(body(comm.rank(r)))
    sim.run()
    assert [(s.category, s.track) for s in rec.spans] == [
        ("mpi.send", 0), ("mpi.recv", 1),
    ]
    assert dict(rec.spans[0].attrs) == {"dest": 1, "size": 100, "tag": 0}
    assert dict(rec.spans[1].attrs)["source"] == 0
    assert rec.events == []


# --- parallel efficiency statistics -----------------------------------------------

def test_parallel_efficiency_single_rank_is_one():
    from repro.comm.mpi import UniformFabric
    from repro.comm.transport import Transport
    from repro.sweep3d.decomposition import Decomposition2D
    from repro.sweep3d.input import SweepInput
    from repro.sweep3d.parallel import ParallelSweep

    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    fabric = UniformFabric(Transport("free", 1e-12, 1e18))
    result = ParallelSweep(inp, Decomposition2D(1, 1), 1e-6, fabric).run()
    assert result.parallel_efficiency == pytest.approx(1.0, rel=1e-6)


def test_parallel_efficiency_matches_model_square_array():
    from repro.comm.mpi import UniformFabric
    from repro.comm.transport import Transport
    from repro.sweep3d.decomposition import Decomposition2D
    from repro.sweep3d.input import SweepInput
    from repro.sweep3d.parallel import ParallelSweep
    from repro.sweep3d.perfmodel import SweepMachineParams, WavefrontModel

    inp = SweepInput(it=2, jt=2, kt=8, mk=2, mmi=1)
    dec = Decomposition2D(4, 4)
    grind = 1e-6
    transport = Transport("free", 1e-12, 1e18)
    des = ParallelSweep(inp, dec, grind, UniformFabric(transport)).run()
    model = WavefrontModel(inp, dec, SweepMachineParams("m", grind, transport))
    assert des.parallel_efficiency == pytest.approx(
        model.parallel_efficiency(), rel=1e-6
    )
    assert des.parallel_efficiency < 1.0
