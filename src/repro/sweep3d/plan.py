"""Sweep plans: cached wavefront geometry for the diamond-difference kernels.

The sweep kernels spend their wall clock on numpy *call overhead*, not
arithmetic: a 5x5x20 K-block is 500 cells, and the seed kernel visited
them as 20 K-planes x 9 anti-diagonals = 180 vectorized steps of a few
cells each.  A :class:`SweepPlan` removes that overhead twice over:

* It walks the **3-D wavefront** ``i + j + k = d`` instead of per-plane
  2-D diagonals — all cells on a 3-D anti-diagonal are mutually
  independent (the (+,+,+) sweep needs ``(i-1,j,k)``, ``(i,j-1,k)``,
  ``(i,j,k-1)``, all on diagonal ``d-1``), so the same block runs in
  ``I+J+K-2 = 28`` steps with proportionally larger batches.
* All per-step gather/scatter index vectors are **precomputed once per
  geometry** and flattened: one concatenated cell/face index array with
  per-diagonal offsets, sliced into per-step views at build time, so the
  kernels never rebuild an index or pay multi-axis fancy indexing.

Plans are cached per ``(I, J, K, M)`` (:func:`get_plan`) and shared
across K-blocks, octants, iterations, and both fixup schemes; each plan
also caches the :class:`repro.sweep3d.kernel.BoundKernel` bound to it
per cross-section, spacing, ordinate set and scheme.

Bit-identity with the seed kernel is part of the contract (asserted in
``tests/test_sweep3d_parallel.py`` and
``benchmarks/perf/perf_sweep3d_kernel.py``) and has one subtlety: the
per-cell angle reduction ``center @ w`` goes through BLAS, whose
one-row matmul (``ddot``) sums in a different order than the multi-row
``gemv`` row kernel.  The seed kernel grouped rows by 2-D K-plane
diagonal, so cells that swept *alone* there (the ``(0,0)``/``(I-1,J-1)``
corners of the (i, j) plane, or every cell when ``min(I, J) == 1``) hit
the one-row path.  The plan records those rows per 3-D step (``fix``)
and the kernel re-does exactly those dots one row at a time,
reproducing the seed reduction bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sweep3d.quadrature import OCTANTS

__all__ = ["SweepPlan", "get_plan", "clear_plans", "octant_flip_maps"]

#: bounded cache of plans per geometry
_PLAN_CACHE_MAX = 64

_plans: dict[tuple[int, int, int, int], "SweepPlan"] = {}


class SweepPlan:
    """Precomputed 3-D wavefront schedule for one ``(I, J, K, M)``.

    ``steps`` is the kernel's entire control flow: one tuple per 3-D
    anti-diagonal ``d = i + j + k`` holding flat gather/scatter index
    views into the raveled cell field (``cell``), the x/y/z face
    surfaces (``xf``/``yf``/``zf``: rows of ``(J*K, M)`` / ``(I*K, M)``
    / ``(I*J, M)`` buffers), and the one-row reduction fix-ups
    (``fix``, row indices into the step's ``(n, M)`` center matrix).
    """

    __slots__ = (
        "shape",
        "n_angles",
        "n_cells",
        "offsets",
        "cell_idx",
        "steps",
        "_bound_cache",
    )

    def __init__(self, I: int, J: int, K: int, M: int):
        if min(I, J, K, M) < 1:
            raise ValueError("plan dimensions must be >= 1")
        self.shape = (I, J, K)
        self.n_angles = M
        self.n_cells = I * J * K

        # Cells in C order ARE their own flat indices; a stable sort by
        # diagonal keeps lexicographic (i, j, k) order within each step.
        flat = np.arange(self.n_cells)
        i_of = flat // (J * K)
        rem = flat - i_of * (J * K)
        j_of = rem // K
        k_of = rem - j_of * K
        diag = i_of + j_of + k_of
        order = np.argsort(diag, kind="stable")
        counts = np.bincount(diag, minlength=I + J + K - 2)
        offsets = np.concatenate(([0], np.cumsum(counts)))

        cell = order
        ii, jj, kk = i_of[order], j_of[order], k_of[order]
        xf = jj * K + kk  # row into the (J*K, ...) x-face surface
        yf = ii * K + kk
        zf = ii * J + jj

        # Rows whose (i, j) anti-diagonal had length 1 in the seed
        # kernel's per-K-plane grouping -> one-row BLAS reduction there.
        diag2_len = np.minimum.reduce(
            [ii + jj, np.full_like(ii, I - 1), np.full_like(ii, J - 1),
             (I - 1) + (J - 1) - (ii + jj)]
        ) + 1
        alone2d = diag2_len == 1

        self.offsets = offsets
        self.cell_idx = cell
        steps = []
        for d in range(len(counts)):
            sl = slice(offsets[d], offsets[d + 1])
            n = offsets[d + 1] - offsets[d]
            # A singleton 3-D step is a one-row matmul already, and its
            # cell necessarily swept alone in 2-D too (any 2-D partner at
            # the same k would share this diagonal).
            fix = () if n == 1 else tuple(
                int(r) for r in np.flatnonzero(alone2d[sl])
            )
            steps.append((cell[sl], xf[sl], yf[sl], zf[sl], fix))
        self.steps = tuple(steps)
        #: bound kernels per (sigma, spacing, ordinates, scheme) — see
        #: :func:`repro.sweep3d.kernel.bind_octant_kernel`
        self._bound_cache: dict = {}


def octant_flip_maps(I: int, J: int, K: int) -> np.ndarray:
    """``(8, I*J*K)`` flat index maps realizing the octant flips of an
    ``(I, J, K)`` cell array: row ``o`` maps each sweep-orientation
    cell of octant ``o`` to its global cell (an involution, so the same
    map gathers flipped sources and scatters fluxes back)."""
    i = np.arange(I)[:, None, None]
    j = np.arange(J)[None, :, None]
    k = np.arange(K)[None, None, :]
    maps = np.empty((len(OCTANTS), I * J * K), dtype=np.intp)
    for octant in OCTANTS:
        fi = I - 1 - i if octant.sx < 0 else i
        fj = J - 1 - j if octant.sy < 0 else j
        fk = K - 1 - k if octant.sz < 0 else k
        maps[octant.id] = ((fi * J + fj) * K + fk).reshape(-1)
    return maps


def get_plan(I: int, J: int, K: int, M: int) -> SweepPlan:
    """The cached :class:`SweepPlan` for one geometry (built on first
    use; one plan object serves every kernel call, octant, K-block and
    iteration on that geometry)."""
    key = (I, J, K, M)
    plan = _plans.get(key)
    if plan is None:
        if len(_plans) >= _PLAN_CACHE_MAX:
            _plans.pop(next(iter(_plans)))
        plan = SweepPlan(I, J, K, M)
        _plans[key] = plan
    return plan


def clear_plans() -> None:
    """Drop every cached plan (tests use this for cold-vs-warm runs)."""
    _plans.clear()
