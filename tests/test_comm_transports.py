"""Tests for transport models against the published Figs 6-9 numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.cml import (
    INTERNODE_CELL_PATH,
    INTERNODE_CELL_PATH_BEST,
    INTRANODE_CELL_PATH,
    LOCAL_LEG,
    CellMessagePath,
)
from repro.comm.dacs import DACS_MEASURED, PCIE_RAW
from repro.comm.eib import CML_EIB_PAIR, EIBRing
from repro.comm.ib import (
    IB_DEFAULT,
    IB_FAR_PAIR,
    IB_NEAR_PAIR,
    IB_PINNED,
    ib_between_cores,
)
from repro.comm.transport import PipelinePath, Transport
from repro.units import GB_S, KIB, MB, MB_S, US, to_mb_s, to_us
from repro.validation import paper_data


# --- Transport basics ---------------------------------------------------------

def test_transport_zero_byte_time_is_latency():
    t = Transport("t", latency=1e-6, bandwidth=1e9)
    assert t.one_way_time(0) == pytest.approx(1e-6)


def test_transport_validation():
    with pytest.raises(ValueError):
        Transport("bad", latency=-1.0, bandwidth=1e9)
    with pytest.raises(ValueError):
        Transport("bad", latency=0.0, bandwidth=0.0)
    with pytest.raises(ValueError):
        Transport("bad", latency=0.0, bandwidth=1e9, bidirectional_factor=0.0)
    with pytest.raises(ValueError):
        Transport("bad", latency=0.0, bandwidth=1e9, eager_bandwidth=-1.0)
    t = Transport("t", latency=1e-6, bandwidth=1e9)
    with pytest.raises(ValueError):
        t.one_way_time(-1)


@pytest.mark.parametrize("size", [float("nan"), float("inf")])
def test_one_way_time_rejects_nan_and_infinite_sizes(size):
    with pytest.raises(ValueError):
        Transport("t", latency=1e-6, bandwidth=1e9).one_way_time(size)


def test_eager_knee_behaviour():
    t = Transport(
        "knee", latency=1e-6, bandwidth=1e9,
        eager_threshold=1024, eager_bandwidth=1e8, rendezvous_latency=5e-6,
    )
    below = t.one_way_time(1024)
    assert below == pytest.approx(1e-6 + 1024 / 1e8)
    # Just past the knee the cost is clamped at the knee value so the
    # protocol switch can never make a larger message cheaper...
    assert t.one_way_time(1025) == pytest.approx(below)
    # ...while far past the knee the rendezvous line takes over.
    assert t.one_way_time(100_000) == pytest.approx(1e-6 + 5e-6 + 100_000 / 1e9)


def test_effective_bandwidth_zero_size():
    assert DACS_MEASURED.effective_bandwidth(0) == 0.0


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=1, max_value=10_000_000))
def test_transport_time_monotone_in_size(size):
    for t in (DACS_MEASURED, PCIE_RAW, IB_DEFAULT, IB_PINNED, CML_EIB_PAIR):
        assert t.one_way_time(size) <= t.one_way_time(size + 4096)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(min_value=1, max_value=10_000_000))
def test_effective_bandwidth_below_wire_rate(size):
    for t in (PCIE_RAW, IB_DEFAULT, IB_PINNED, CML_EIB_PAIR):
        assert t.effective_bandwidth(size) <= t.bandwidth * (1 + 1e-9)


# --- DaCS / PCIe (Figs 6, 7, 9; §VI-A) -----------------------------------------

def test_dacs_latency_is_3_19_us():
    assert to_us(DACS_MEASURED.latency) == pytest.approx(paper_data.DACS_LATENCY_US)


def test_pcie_raw_parameters():
    assert to_us(PCIE_RAW.latency) == pytest.approx(paper_data.PCIE_PEAK_LATENCY_US)
    assert PCIE_RAW.bandwidth == pytest.approx(paper_data.PCIE_PEAK_BW_GB_S * GB_S)


def test_dacs_1mb_unidirectional_near_1008_mb_s():
    """Fig 7: intranode 2x unidirectional = 2,017 MB/s -> ~1,008 each."""
    uni = to_mb_s(DACS_MEASURED.effective_bandwidth(1 * MB))
    assert uni == pytest.approx(paper_data.INTRANODE_2X_UNIDIR_MB_S / 2, rel=0.02)


def test_dacs_bidirectional_factor_is_fig7s_0_64():
    assert DACS_MEASURED.bidirectional_factor == pytest.approx(
        paper_data.INTRANODE_BIDIR_FRACTION
    )
    bidir = to_mb_s(DACS_MEASURED.bidirectional_sum_bandwidth(1 * MB))
    assert bidir == pytest.approx(paper_data.INTRANODE_BIDIR_MB_S, rel=0.02)


def test_dacs_under_half_of_ib_for_small_messages():
    """Fig 9: below ~20 KB DaCS achieves less than half the InfiniBand
    bandwidth (despite the comparison favouring DaCS)."""
    for size in (2 * KIB, 4 * KIB, 8 * KIB, 16 * KIB):
        ratio = DACS_MEASURED.effective_bandwidth(size) / IB_DEFAULT.effective_bandwidth(size)
        assert ratio < 0.5, size


def test_dacs_approaches_ib_for_large_messages():
    """Fig 9: the ratio approaches 1 at large message sizes."""
    ratio = DACS_MEASURED.effective_bandwidth(1 * MB) / IB_DEFAULT.effective_bandwidth(1 * MB)
    assert 0.9 < ratio < 1.1


def test_pcie_raw_beats_measured_dacs_everywhere():
    for size in (64, 1024, 16 * KIB, 128 * KIB, 1 * MB):
        assert PCIE_RAW.one_way_time(size) < DACS_MEASURED.one_way_time(size)


# --- InfiniBand (Figs 6, 8, 10) --------------------------------------------------

def test_ib_latency_is_2_16_us():
    assert to_us(IB_DEFAULT.latency) == pytest.approx(paper_data.MPI_IB_LATENCY_US)


def test_ib_default_1mb_is_980_mb_s():
    assert to_mb_s(IB_DEFAULT.effective_bandwidth(1 * MB)) == pytest.approx(
        paper_data.IB_1MB_DEFAULT_MB_S, rel=0.01
    )


def test_ib_pinned_1mb_is_1600_mb_s():
    assert to_mb_s(IB_PINNED.effective_bandwidth(1 * MB)) == pytest.approx(
        paper_data.IB_1MB_PINNED_MB_S, rel=0.01
    )


def test_fig8_near_pair_bandwidth():
    bw = to_mb_s(IB_NEAR_PAIR.effective_bandwidth(10 * MB))
    assert bw == pytest.approx(paper_data.OPTERON_NEAR_HCA_MB_S, rel=0.01)


def test_fig8_far_pair_bandwidth():
    bw = to_mb_s(IB_FAR_PAIR.effective_bandwidth(10 * MB))
    assert bw == pytest.approx(paper_data.OPTERON_FAR_HCA_MB_S, rel=0.01)


def test_ib_between_cores_selects_by_proximity():
    assert ib_between_cores(1, 3) is IB_NEAR_PAIR
    assert ib_between_cores(0, 2) is IB_FAR_PAIR
    assert ib_between_cores(0, 1) is IB_FAR_PAIR  # slower endpoint dominates
    with pytest.raises(ValueError):
        ib_between_cores(0, 4)


# --- EIB / CML intra-socket (§V-C) -------------------------------------------------

def test_cml_intra_socket_latency():
    assert to_us(CML_EIB_PAIR.latency) == pytest.approx(
        paper_data.CML_INTRA_SOCKET_LATENCY_US
    )


def test_cml_128kb_achieves_22_4_gb_s():
    bw = CML_EIB_PAIR.effective_bandwidth(128 * KIB)
    assert bw == pytest.approx(paper_data.CML_INTRA_SOCKET_BW_GB_S * GB_S, rel=0.01)


def test_eib_aggregate_bandwidth():
    ring = EIBRing()
    assert ring.aggregate_bandwidth == pytest.approx(96 * 3.2e9)


def test_eib_fair_share_capped_by_pair_rate():
    ring = EIBRing()
    assert ring.fair_share(1) == pytest.approx(CML_EIB_PAIR.bandwidth)
    # 16 flows share the 307.2 GB/s ring: 19.2 GB/s each.
    assert ring.fair_share(16) == pytest.approx(ring.aggregate_bandwidth / 16)
    with pytest.raises(ValueError):
        ring.fair_share(0)


def test_eib_supports_four_pair_transfers_at_full_rate():
    ring = EIBRing()
    assert ring.supports_all_pairs(CML_EIB_PAIR.bandwidth, 4)
    assert not ring.supports_all_pairs(CML_EIB_PAIR.bandwidth, 16)


# --- the Fig 6 path ------------------------------------------------------------------

def test_fig6_zero_byte_breakdown_sums_to_8_78_us():
    assert to_us(INTERNODE_CELL_PATH.zero_byte_latency) == pytest.approx(
        paper_data.CELL_TO_CELL_INTERNODE_LATENCY_US, abs=0.01
    )


def test_fig6_leg_latencies():
    legs = dict(INTERNODE_CELL_PATH.latency_breakdown())
    assert to_us(legs["DaCS over PCIe (measured)"]) == pytest.approx(3.19)
    assert to_us(legs["MPI over InfiniBand (default Open MPI)"]) == pytest.approx(2.16)
    assert to_us(legs["local SPE<->PPE leg"]) == pytest.approx(0.12)


def test_fig7_internode_unidirectional_268_mb_s():
    """536 MB/s two-times-unidirectional -> ~268 MB/s per direction."""
    uni = to_mb_s(INTERNODE_CELL_PATH.effective_bandwidth(1 * MB))
    assert uni == pytest.approx(paper_data.INTERNODE_2X_UNIDIR_MB_S / 2, rel=0.03)


def test_fig7_internode_bidirectional_375_mb_s():
    bidir = to_mb_s(INTERNODE_CELL_PATH.bidirectional_sum_bandwidth(1 * MB))
    assert bidir == pytest.approx(paper_data.INTERNODE_BIDIR_MB_S, rel=0.03)


def test_fig7_intranode_faster_than_internode():
    for size in (1 * KIB, 64 * KIB, 1 * MB):
        assert (
            INTRANODE_CELL_PATH.one_way_time(size)
            < INTERNODE_CELL_PATH.one_way_time(size)
        )


def test_best_path_beats_measured_path():
    for size in (0, 1 * KIB, 64 * KIB, 1 * MB):
        assert (
            INTERNODE_CELL_PATH_BEST.one_way_time(size)
            < INTERNODE_CELL_PATH.one_way_time(size)
        )


def test_cell_message_path_classification():
    path = CellMessagePath()
    assert path.classify((0, 0, 0), (0, 0, 0)) == "self"
    assert path.classify((0, 0, 0), (0, 0, 5)) == "intra-socket"
    assert path.classify((0, 0, 0), (0, 3, 5)) == "intranode"
    assert path.classify((0, 0, 0), (9, 0, 0)) == "internode"


def test_cell_message_path_times_ordered_by_distance():
    path = CellMessagePath()
    size = 16 * KIB
    t_self = path.one_way_time((0, 0, 0), (0, 0, 0), size)
    t_sock = path.one_way_time((0, 0, 0), (0, 0, 1), size)
    t_node = path.one_way_time((0, 0, 0), (0, 1, 0), size)
    t_far = path.one_way_time((0, 0, 0), (1, 0, 0), size)
    assert t_self == 0.0
    assert t_self < t_sock < t_node < t_far


def test_pipeline_path_validation():
    with pytest.raises(ValueError):
        PipelinePath("empty", legs=())
    with pytest.raises(ValueError):
        PipelinePath("bad-copy", legs=(LOCAL_LEG,), relay_copy_bandwidth=-1.0)
    with pytest.raises(ValueError):
        PipelinePath("bad-bidir", legs=(LOCAL_LEG,), bidirectional_factor=1.5)


def test_pipeline_serialization_time():
    t = INTERNODE_CELL_PATH
    assert t.serialization_time(0) == pytest.approx(0.0)
    assert t.serialization_time(1 * MB) == pytest.approx(
        t.one_way_time(1 * MB) - t.zero_byte_latency
    )
