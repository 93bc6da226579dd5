"""Tests for the memory-system (Table III) and MFC DMA models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.dma import MFC_DMA, MFC_MAX_TRANSFER, DMAEngine, SharedMemoryController
from repro.hardware.memory import (
    MEMORY_SYSTEMS,
    MemoryLevel,
    MemorySystem,
    OPTERON_MEMORY,
    PPE_MEMORY,
    SPE_LOCAL_STORE,
)
from repro.sim import Simulator
from repro.units import GB_S, KIB, MIB, NS, to_gb_s
from repro.validation import paper_data


# --- Table III ----------------------------------------------------------------

@pytest.mark.parametrize("name", list(paper_data.STREAM_TRIAD_GB_S))
def test_stream_triad_matches_table3(name):
    system = MEMORY_SYSTEMS[name]
    measured = to_gb_s(system.stream_triad_bandwidth())
    assert measured == pytest.approx(paper_data.STREAM_TRIAD_GB_S[name], rel=1e-6)


@pytest.mark.parametrize("name", list(paper_data.MEMTIME_LATENCY_NS))
def test_memtime_main_memory_matches_table3(name):
    system = MEMORY_SYSTEMS[name]
    # memtime probes with a working set far larger than any cache.
    latency_ns = system.memtime_latency(256 * MIB) / NS
    assert latency_ns == pytest.approx(paper_data.MEMTIME_LATENCY_NS[name])


def test_ppe_is_the_bandwidth_bottleneck():
    """§IV-B: 'the PPE is a bottleneck and is best used for control
    functions' — it sustains far less than either other system."""
    ppe = PPE_MEMORY.stream_triad_bandwidth()
    assert ppe < OPTERON_MEMORY.stream_triad_bandwidth()
    assert ppe < SPE_LOCAL_STORE.stream_triad_bandwidth()
    assert ppe / PPE_MEMORY.peak_bandwidth < 0.05


def test_spe_local_store_fastest():
    assert SPE_LOCAL_STORE.stream_triad_bandwidth() > OPTERON_MEMORY.stream_triad_bandwidth()


def test_spe_ls_peak_is_51_2_gb_s():
    assert SPE_LOCAL_STORE.peak_bandwidth == pytest.approx(
        paper_data.SPE_LS_PEAK_BW_GB_S * GB_S
    )


# --- memtime hierarchy behaviour -----------------------------------------------

def test_memtime_small_working_set_hits_l1():
    lat = OPTERON_MEMORY.memtime_latency(16 * KIB)
    assert lat == pytest.approx(3 / 1.8e9)


def test_memtime_medium_working_set_hits_l2():
    lat = OPTERON_MEMORY.memtime_latency(1 * MIB)
    assert lat == pytest.approx(12 / 1.8e9)


def test_memtime_curve_is_nondecreasing():
    sizes = [4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 64 * MIB]
    for system in MEMORY_SYSTEMS.values():
        curve = [lat for _, lat in system.memtime_curve(sizes)]
        assert all(b >= a for a, b in zip(curve, curve[1:])), system.name


def test_memtime_rejects_nonpositive_working_set():
    with pytest.raises(ValueError):
        OPTERON_MEMORY.memtime_latency(0)


def test_stream_triad_time_scales_linearly():
    t1 = OPTERON_MEMORY.stream_triad_time(1_000_000)
    t2 = OPTERON_MEMORY.stream_triad_time(2_000_000)
    assert t2 == pytest.approx(2 * t1)


def test_stream_triad_time_rejects_negative():
    with pytest.raises(ValueError):
        OPTERON_MEMORY.stream_triad_time(-1)


def test_memory_system_validation():
    with pytest.raises(ValueError):
        MemorySystem("bad-eff", 1 * GB_S, 0.0, (MemoryLevel("m", None, 1 * NS),))
    with pytest.raises(ValueError):
        MemorySystem("no-terminal", 1 * GB_S, 0.5, (MemoryLevel("L1", 1024, 1 * NS),))
    with pytest.raises(ValueError):
        MemorySystem(
            "shrinking", 1 * GB_S, 0.5,
            (
                MemoryLevel("L2", 2048, 1 * NS),
                MemoryLevel("L1", 1024, 1 * NS),
                MemoryLevel("m", None, 2 * NS),
            ),
        )


# --- MFC DMA --------------------------------------------------------------------

def test_dma_command_count_respects_16kb_limit():
    assert MFC_DMA.commands_for(0) == 0
    assert MFC_DMA.commands_for(1) == 1
    assert MFC_DMA.commands_for(MFC_MAX_TRANSFER) == 1
    assert MFC_DMA.commands_for(MFC_MAX_TRANSFER + 1) == 2
    assert MFC_DMA.commands_for(10 * MFC_MAX_TRANSFER) == 10


@pytest.mark.parametrize("size", [-1, float("nan"), float("inf")])
def test_dma_command_count_rejects_invalid_sizes(size):
    with pytest.raises(ValueError):
        MFC_DMA.commands_for(size)


def test_dma_transfer_time_components():
    size = 64 * KIB
    t = MFC_DMA.transfer_time(size, pipelined=True)
    assert t == pytest.approx(MFC_DMA.setup_latency + size / MFC_DMA.bandwidth)


def test_unpipelined_dma_pays_setup_per_command():
    size = 64 * KIB  # 4 commands
    t = MFC_DMA.transfer_time(size, pipelined=False)
    assert t == pytest.approx(4 * MFC_DMA.setup_latency + size / MFC_DMA.bandwidth)


def test_dma_effective_bandwidth_approaches_peak_for_large_transfers():
    small = MFC_DMA.effective_bandwidth(128)
    large = MFC_DMA.effective_bandwidth(16 * MIB)
    assert small < large
    assert large / MFC_DMA.bandwidth > 0.95


def test_dma_zero_size():
    assert MFC_DMA.transfer_time(0) == 0.0
    assert MFC_DMA.effective_bandwidth(0) == 0.0


def test_dma_negative_size_rejected():
    with pytest.raises(ValueError):
        MFC_DMA.commands_for(-1)


def test_dma_engine_validation():
    with pytest.raises(ValueError):
        DMAEngine("bad", setup_latency=-1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        DMAEngine("bad", setup_latency=0.0, bandwidth=0.0)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=1, max_value=64 * 1024 * 1024))
def test_dma_time_monotone_in_size(size):
    assert MFC_DMA.transfer_time(size) <= MFC_DMA.transfer_time(size + 1024)


# --- shared memory controller (DES) ----------------------------------------------

def test_shared_controller_single_dma_time():
    sim = Simulator()
    mc = SharedMemoryController(sim)
    size = 256 * KIB
    done = mc.dma(size)
    sim.run(until=done)
    assert sim.now == pytest.approx(MFC_DMA.setup_latency + size / MFC_DMA.bandwidth)


def test_shared_controller_contention_halves_bandwidth():
    sim = Simulator()
    mc = SharedMemoryController(sim)
    size = 1 * MIB
    d1 = mc.dma(size)
    d2 = mc.dma(size)
    sim.run(until=d1)
    sim.run(until=d2)
    solo = MFC_DMA.setup_latency + size / MFC_DMA.bandwidth
    # Two concurrent streams take ~2x the bandwidth phase.
    expected = MFC_DMA.setup_latency + 2 * size / MFC_DMA.bandwidth
    assert sim.now == pytest.approx(expected, rel=1e-6)
    assert sim.now > solo


def test_shared_controller_zero_byte():
    sim = Simulator()
    mc = SharedMemoryController(sim)
    done = mc.dma(0)
    sim.run(until=done)
    assert sim.now == 0.0
