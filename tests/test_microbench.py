"""Tests for the microbenchmark programs — each measured value must
agree with the analytic model it probes (cross-layer validation)."""

import pytest

from repro.comm.cml import CellMessagePath, INTERNODE_CELL_PATH
from repro.comm.mpi import Location, UniformFabric
from repro.comm.transport import Transport
from repro.hardware.memory import MEMORY_SYSTEMS, OPTERON_MEMORY
from repro.hardware.spe_pipeline import (
    CELL_BE_TABLE,
    INSTRUCTION_GROUPS,
    InstructionGroup,
    POWERXCELL_8I_TABLE,
)
from repro.microbench import (
    bandwidth_sweep,
    instruction_microbenchmark,
    measure_latency_map,
    memtime_probe,
    pingpong,
    stream_triad_probe,
)
from repro.network.latency import IBLatencyModel
from repro.network.topology import RoadrunnerTopology
from repro.units import KIB, MIB, US


# --- instruction probes -----------------------------------------------------------

@pytest.mark.parametrize("table", [CELL_BE_TABLE, POWERXCELL_8I_TABLE],
                         ids=lambda t: t.name)
def test_instruction_probes_match_tables(table):
    measured = instruction_microbenchmark(table)
    for group in INSTRUCTION_GROUPS:
        m = measured[group]
        assert m.latency == pytest.approx(table.latency(group))
        assert m.repetition == pytest.approx(table.repetition(group))


def test_global_stall_probe_isolates_fpd():
    measured = instruction_microbenchmark(CELL_BE_TABLE)
    assert measured[InstructionGroup.FPD].global_stall == 7
    for group in INSTRUCTION_GROUPS:
        if group is not InstructionGroup.FPD:
            assert measured[group].global_stall == 0, group
    pxc = instruction_microbenchmark(POWERXCELL_8I_TABLE)
    assert pxc[InstructionGroup.FPD].global_stall == 0


# --- ping-pong --------------------------------------------------------------------

def test_pingpong_zero_byte_measures_latency():
    transport = Transport("t", latency=2 * US, bandwidth=1e9)
    result = pingpong(UniformFabric(transport), Location(0), Location(1))
    assert result.one_way_time == pytest.approx(2e-6)
    assert result.bandwidth == 0.0


def test_pingpong_measures_transport_curve():
    transport = Transport("t", latency=2 * US, bandwidth=1e9)
    fabric = UniformFabric(transport)
    for size in (1024, 64 * KIB, 1_000_000):
        result = pingpong(fabric, Location(0), Location(1), size=size)
        assert result.one_way_time == pytest.approx(transport.one_way_time(size))
        assert result.bandwidth == pytest.approx(
            transport.effective_bandwidth(size)
        )


def test_pingpong_reproduces_fig6_total():
    """The Cell-to-Cell ping-pong measures the 8.78 us path."""
    fabric = CellMessagePath()
    result = pingpong(fabric, Location(0, 0, 0), Location(5, 0, 0))
    assert result.one_way_time == pytest.approx(
        INTERNODE_CELL_PATH.zero_byte_latency, rel=1e-9
    )


def test_bandwidth_sweep_is_monotone():
    transport = Transport("t", latency=2 * US, bandwidth=1e9)
    sweep = bandwidth_sweep(
        UniformFabric(transport), Location(0), Location(1),
        sizes=[64, 1024, 16384, 262144],
    )
    bws = [r.bandwidth for r in sweep]
    assert all(b > a for a, b in zip(bws, bws[1:]))


def test_pingpong_validates_repetitions():
    with pytest.raises(ValueError):
        pingpong(UniformFabric(Transport("t", 1e-6, 1e9)),
                 Location(0), Location(1), repetitions=0)


# --- streams / memtime ---------------------------------------------------------------

@pytest.mark.parametrize("name", list(MEMORY_SYSTEMS))
def test_triad_probe_matches_model(name):
    system = MEMORY_SYSTEMS[name]
    probe = stream_triad_probe(system, elements=50_000)
    assert probe.modeled_bandwidth == pytest.approx(
        system.stream_triad_bandwidth()
    )
    assert probe.modeled_time == pytest.approx(
        system.stream_triad_time(50_000)
    )


def test_triad_probe_validates_elements():
    with pytest.raises(ValueError):
        stream_triad_probe(OPTERON_MEMORY, elements=0)


def test_memtime_probe_staircase():
    sizes = [16 * KIB, 1 * MIB, 64 * MIB]
    curve = memtime_probe(OPTERON_MEMORY, sizes)
    latencies = [lat for _, lat in curve]
    assert latencies[0] < latencies[1] < latencies[2]
    assert latencies == [OPTERON_MEMORY.memtime_latency(s) for s in sizes]


# --- the Fig 10 probe ------------------------------------------------------------------

def test_latency_map_probe_matches_analytic_model():
    topo = RoadrunnerTopology(cu_count=2)
    model = IBLatencyModel()
    samples = [1, 9, 100, 180, 200]
    measured = measure_latency_map(topo, destinations=samples)
    for dst in samples:
        assert measured[dst] == pytest.approx(
            model.zero_byte_latency(topo, 0, dst), rel=1e-9
        )


def test_latency_map_rejects_bad_destination():
    topo = RoadrunnerTopology(cu_count=1)
    with pytest.raises(ValueError):
        measure_latency_map(topo, destinations=[0])
    with pytest.raises(ValueError):
        measure_latency_map(topo, destinations=[180])
