"""Tests for the text Gantt view of recorded spans and its sweep integration."""

import pytest

from repro.comm.mpi import UniformFabric
from repro.comm.transport import Transport
from repro.obs import ObsRecorder, format_gantt, profile
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep


def _compute(*spans) -> ObsRecorder:
    """A recorder holding ``(track, t0, t1)`` sweep.compute spans."""
    rec = ObsRecorder()
    for track, t0, t1 in spans:
        rec.span("sweep.compute", track, t0, t1)
    return rec


def test_timeline_busy_time_and_utilization():
    rec = _compute((0, 0.0, 1.0), (0, 2.0, 3.0), (1, 0.0, 4.0))
    prof = profile(rec, 4.0)
    assert prof.ranks[0].phases["compute"] == pytest.approx(2.0)
    assert prof.ranks[0].idle == pytest.approx(2.0)
    assert prof.ranks[1].phases["compute"] == pytest.approx(4.0)
    lines = format_gantt(rec, width=8).splitlines()
    assert lines[0].endswith(" 50.0%")
    assert lines[1].endswith("100.0%")


def test_timeline_actor_order():
    rec = _compute((9, 0, 1), (0, 1, 2), (9, 2, 3))
    rows = [line.split(" |")[0].strip() for line in format_gantt(rec).splitlines()]
    assert rows == ["rank9", "rank0"]


def test_render_gantt_shape():
    rec = _compute((0, 0.0, 0.5), (1, 0.5, 1.0))
    rec.span("mpi.send", 0, 0.0, 1.0)  # other categories are not drawn
    text = format_gantt(rec, width=10)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("rank0 |")
    # rank0 busy in the first half, idle in the second.
    row0 = lines[0].split("|")[1]
    assert row0[:5] == "#####"
    assert row0[5:] == "....."


def test_render_empty_and_validation():
    assert format_gantt(ObsRecorder()) == "(empty timeline)"
    rec = _compute((0, 0, 1))
    with pytest.raises(ValueError):
        format_gantt(rec, width=0)


def test_sweep_timeline_integration():
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=1)
    dec = Decomposition2D(2, 2)
    rec = ObsRecorder(categories={"sweep.compute"})
    fabric = UniformFabric(Transport("free", 1e-12, 1e18))
    result = ParallelSweep(inp, dec, 1e-6, fabric, obs=rec).run()
    # One span per (rank, octant, block): 4 ranks x 8 x 2.
    assert len(rec.spans) == 4 * 8 * 2
    assert {span.track for span in rec.spans} == set(range(4))
    # Busy time per rank equals the DES's own accounting.
    prof = profile(rec, result.iteration_time)
    assert prof.ranks[0].phases["compute"] == pytest.approx(
        result.compute_time_per_rank
    )
    # The corner ranks fill/drain: utilization below 1.
    assert 0 < prof.ranks[0].idle < result.iteration_time
    text = format_gantt(rec, width=40)
    assert "rank3" in text
