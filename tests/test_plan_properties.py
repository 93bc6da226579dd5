"""Property-based tests for the sweep-plan geometry.

The :class:`~repro.sweep3d.plan.SweepPlan` wavefront schedule and
octant flip maps are pure index arithmetic, so they are checked here
against their *definitions* — a naive triple-loop enumeration of the
3-D anti-diagonals, and ``numpy.flip`` — over randomized geometries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep3d.plan import SweepPlan, octant_flip_maps
from repro.sweep3d.quadrature import OCTANTS
from repro.sweep3d.solver import _flip

#: randomized geometries: small enough to enumerate naively, large
#: enough to hit every branch (singleton dims, singleton steps, ...)
dims = st.integers(min_value=1, max_value=6)
angle_counts = st.integers(min_value=1, max_value=4)


def naive_wavefront(I: int, J: int, K: int) -> list[list[tuple[int, int, int]]]:
    """The definition: cells grouped by anti-diagonal ``d = i + j + k``,
    in lexicographic (i, j, k) order within each group."""
    steps = [[] for _ in range(I + J + K - 2)]
    for i in range(I):
        for j in range(J):
            for k in range(K):
                steps[i + j + k].append((i, j, k))
    return steps


@settings(deadline=None, max_examples=60)
@given(I=dims, J=dims, K=dims, M=angle_counts)
def test_steps_match_naive_triple_loop(I, J, K, M):
    plan = SweepPlan(I, J, K, M)
    naive = naive_wavefront(I, J, K)
    assert len(plan.steps) == len(naive) == I + J + K - 2
    for step, cells in zip(plan.steps, naive):
        cell_idx, xf, yf, zf = step[0], step[1], step[2], step[3]
        expect_cell = [(i * J + j) * K + k for i, j, k in cells]
        assert cell_idx.tolist() == expect_cell
        assert xf.tolist() == [j * K + k for i, j, k in cells]
        assert yf.tolist() == [i * K + k for i, j, k in cells]
        assert zf.tolist() == [i * J + j for i, j, k in cells]


@settings(deadline=None, max_examples=60)
@given(I=dims, J=dims, K=dims, M=angle_counts)
def test_offsets_partition_all_cells(I, J, K, M):
    plan = SweepPlan(I, J, K, M)
    sizes = np.diff(plan.offsets)
    assert plan.offsets[0] == 0
    assert plan.offsets[-1] == plan.n_cells == I * J * K
    assert (sizes >= 1).all()  # every 3-D anti-diagonal is non-empty
    # The concatenated schedule visits each cell exactly once.
    assert sorted(plan.cell_idx.tolist()) == list(range(I * J * K))


@settings(deadline=None, max_examples=60)
@given(I=dims, J=dims, K=dims, M=angle_counts)
def test_fixup_rows_are_the_2d_singletons(I, J, K, M):
    """``fix`` marks exactly the rows whose (i, j) anti-diagonal had
    length 1 in the seed kernel's per-K-plane grouping."""
    plan = SweepPlan(I, J, K, M)
    naive = naive_wavefront(I, J, K)
    for step, cells in zip(plan.steps, naive):
        if len(cells) == 1:
            # Singleton 3-D steps go through the one-row path whole.
            assert step[4] == ()
            continue
        expect = tuple(
            r
            for r, (i, j, _k) in enumerate(cells)
            if min(i + j, I - 1, J - 1, (I - 1) + (J - 1) - (i + j)) + 1 == 1
        )
        assert step[4] == expect


@settings(deadline=None, max_examples=60)
@given(I=dims, J=dims, K=dims)
def test_octant_maps_are_involutions(I, J, K):
    maps = octant_flip_maps(I, J, K)
    assert maps.shape == (len(OCTANTS), I * J * K)
    identity = np.arange(I * J * K)
    for octant in OCTANTS:
        col = maps[octant.id]
        # A flip map is a permutation and its own inverse.
        assert np.array_equal(np.sort(col), identity)
        assert np.array_equal(col[col], identity)


@settings(deadline=None, max_examples=40)
@given(I=dims, J=dims, K=dims, data=st.data())
def test_octant_maps_realize_flip(I, J, K, data):
    """Gathering through an octant's map equals ``_flip`` of the array
    (the solver's axis-flip), for a random field and octant."""
    octant = data.draw(st.sampled_from(OCTANTS))
    rng = np.random.default_rng(
        data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    )
    arr = rng.standard_normal((I, J, K))
    via_map = arr.reshape(-1)[octant_flip_maps(I, J, K)[octant.id]].reshape(I, J, K)
    assert np.array_equal(via_map, _flip(arr, octant.signs))
