"""Unit tests for the Panasas parallel-filesystem model."""

import pytest

from repro.io.panasas import IoNodeSpec, PanasasModel
from repro.units import MB_S


def test_pfs_aggregate_bandwidth():
    pfs = PanasasModel(cu_count=17)
    assert pfs.io_node_count == 204
    assert pfs.aggregate_bandwidth == pytest.approx(204 * 400 * MB_S)


def test_pfs_checkpoint_time_scale():
    """Half of Roadrunner's ~98 TiB takes tens of minutes at ~82 GB/s."""
    pfs = PanasasModel(cu_count=17)
    t = pfs.checkpoint_time(memory_fraction=0.5)
    assert 300 < t < 3600


def test_pfs_validation():
    with pytest.raises(ValueError):
        PanasasModel(cu_count=0)
    with pytest.raises(ValueError):
        IoNodeSpec(bandwidth=0.0)
    with pytest.raises(ValueError):
        PanasasModel().checkpoint_time(0.0)
