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
across K-blocks, octants, iterations, and both the plain and fixup
kernels; each plan also memoizes the angle constants ``cx/cy/cz/c_sum``
per ``(dx, dy, dz, ordinate set)`` and owns reusable gather/scratch
workspaces for the hot single-octant path.

Bit-identity with the seed kernel is part of the contract (asserted in
``benchmarks/perf/perf_sweep3d_kernel.py``) and has one subtlety: the
per-cell angle reduction ``center @ w`` goes through BLAS, whose
one-row matmul (``ddot``) sums in a different order than the multi-row
``gemv`` row kernel.  The seed kernel grouped rows by 2-D K-plane
diagonal, so cells that swept *alone* there (the ``(0,0)``/``(I-1,J-1)``
corners of the (i, j) plane, or every cell when ``min(I, J) == 1``) hit
the one-row path.  The plan records those rows per 3-D step
(``fix_single`` / ``fix_batched``) and the kernels re-do exactly those
dots one row at a time, reproducing the seed reduction bit for bit.

Workspaces are reused across calls, so kernel calls are not re-entrant
and plans are not thread-safe; the simulator is single-threaded and
kernel calls complete atomically between DES yields, which is what
makes sharing one plan across all ranks of a sweep safe.
"""

from __future__ import annotations

import numpy as np

from repro.sweep3d.quadrature import OCTANTS, AngleSet

__all__ = ["SweepPlan", "get_plan", "clear_plans", "octant_flip_maps"]

#: bounded caches: plans per geometry, angle constants per plan
_PLAN_CACHE_MAX = 64
_ANGLE_CACHE_MAX = 8

_plans: dict[tuple[int, int, int, int], "SweepPlan"] = {}


class SweepPlan:
    """Precomputed 3-D wavefront schedule for one ``(I, J, K, M)``.

    ``steps`` is the kernel's entire control flow: one tuple per 3-D
    anti-diagonal ``d = i + j + k`` holding flat gather/scatter index
    views into the raveled cell field (``cell``), the x/y/z face
    surfaces (``xf``/``yf``/``zf``: rows of ``(J*K, M)`` / ``(I*K, M)``
    / ``(I*J, M)`` buffers), and the one-row reduction fix-ups
    (``fix_single`` for the per-octant kernels, ``fix_batched`` for the
    8-octant batched kernel, as row indices into the step's flattened
    ``(n, M)`` / ``(n*8, M)`` center matrix).
    """

    __slots__ = (
        "shape",
        "n_angles",
        "n_cells",
        "offsets",
        "cell_idx",
        "steps",
        "_angle_cache",
        "_octant_maps",
        "_workspaces",
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
            if n == 1:
                # A singleton 3-D step is a one-row matmul already, and
                # its cell necessarily swept alone in 2-D too (any 2-D
                # partner at the same k would share this diagonal).
                fix_single: tuple[int, ...] = ()
                fix_batched = tuple(range(len(OCTANTS)))
            else:
                rows = np.flatnonzero(alone2d[sl])
                fix_single = tuple(int(r) for r in rows)
                fix_batched = tuple(
                    int(r) * len(OCTANTS) + o
                    for r in rows
                    for o in range(len(OCTANTS))
                )
            steps.append(
                (cell[sl], xf[sl], yf[sl], zf[sl], fix_single, fix_batched)
            )
        self.steps = tuple(steps)
        self._angle_cache: dict = {}
        self._octant_maps = None
        self._workspaces: dict = {}
        #: bound fused kernels per (sigma, spacing, ordinates) — see
        #: :func:`repro.sweep3d.kernel.bind_octant_kernel`
        self._bound_cache: dict = {}

    # -- angle constants -------------------------------------------------------
    def angle_constants(self, dx: float, dy: float, dz: float, angles: AngleSet):
        """``(cx, cy, cz, c_sum, w)`` for one spacing + ordinate set,
        memoized (the same few combinations recur across every K-block,
        octant and iteration of a run)."""
        key = (
            dx, dy, dz,
            angles.mu.tobytes(), angles.eta.tobytes(),
            angles.xi.tobytes(), angles.weights.tobytes(),
        )
        cached = self._angle_cache.get(key)
        if cached is None:
            cx = 2.0 * angles.mu / dx
            cy = 2.0 * angles.eta / dy
            cz = 2.0 * angles.xi / dz
            cached = (cx, cy, cz, cx + cy + cz, angles.weights)
            if len(self._angle_cache) >= _ANGLE_CACHE_MAX:
                self._angle_cache.pop(next(iter(self._angle_cache)))
            self._angle_cache[key] = cached
        return cached

    # -- octant flip maps ------------------------------------------------------
    @property
    def octant_maps(self) -> np.ndarray:
        """``(n_cells, 8)`` flat index maps realizing the octant flips:
        column ``o`` maps a sweep-orientation cell of octant ``o`` to
        its global cell (an involution, so the same map gathers flipped
        sources and scatters fluxes back).  Built lazily — only the
        batched sequential sweep needs it."""
        if self._octant_maps is None:
            self._octant_maps = np.ascontiguousarray(
                octant_flip_maps(*self.shape).T
            )
        return self._octant_maps

    # -- scratch workspaces ----------------------------------------------------
    def workspace(self, width: int) -> dict:
        """Reusable per-step scratch for one trailing width (``M`` for
        the per-octant kernels, ``8*M`` batched): gather targets and
        arithmetic temporaries sized for the largest step.  Shared
        across calls — kernel calls are atomic, see the module
        docstring — so the hot path allocates nothing per diagonal."""
        ws = self._workspaces.get(width)
        if ws is None:
            n_max = int(np.diff(self.offsets).max())
            ws = {
                "in_x": np.empty((n_max, width)),
                "in_y": np.empty((n_max, width)),
                "in_z": np.empty((n_max, width)),
                "numer": np.empty((n_max, width)),
                "center": np.empty((n_max, width)),
                "two": np.empty((n_max, width)),
                "rows": np.empty(n_max),
            }
            self._workspaces[width] = ws
        return ws


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


def reduce_rows(
    center: np.ndarray,
    w: np.ndarray,
    fix: tuple[int, ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row angle reduction ``center @ w`` reproducing the seed
    kernel's BLAS grouping: one batched matmul for the step, then the
    rows recorded in ``fix`` re-done one at a time (the one-row path
    sums in ``ddot`` order, which is what those cells saw when they
    swept alone in the seed's 2-D diagonals).  ``out``, when given,
    must be a flat ``(rows,)`` buffer for the matmul result."""
    flat = center.reshape(-1, center.shape[-1])
    p = flat @ w if out is None else np.matmul(flat, w, out=out)
    for r in fix:
        p[r] = flat[r] @ w
    return p.reshape(center.shape[:-1])
