"""The diamond-difference block kernel, driven by a sweep plan.

The dependency structure of a (+,+,+) sweep is ``(i, j, k)`` needing
``(i-1, j, k)``, ``(i, j-1, k)``, ``(i, j, k-1)``: every cell on the
3-D anti-diagonal ``i + j + k = d`` depends only on diagonal ``d - 1``,
so the kernel walks the :class:`repro.sweep3d.plan.SweepPlan`'s
precomputed wavefront steps — ``I+J+K-2`` of them, against the
``K x (I+J-1)`` per-K-plane steps of the seed implementation — and
vectorizes each over cells and angles simultaneously, the numpy
analogue of the paper's SPE port batching its innermost loop for SIMD.

:class:`BoundKernel` is the one implementation of the block step.  It
sweeps a stack of same-geometry blocks per call: the distributed
sweep's one call per wavefront level, the sequential solver's eight
vacuum octants side by side, or a single block
(:func:`sweep_octant`).  Results match
:func:`repro.sweep3d.reference.reference_sweep_octant` to
floating-point round-off, and the seed-commit ``sweep_octant`` **bit
for bit** (the plan records which rows must take BLAS's one-row
reduction path; see :mod:`repro.sweep3d.plan`) — asserted by tier-1
and the perf smoke tier.

Plain diamond differencing can extrapolate negative outgoing angular
fluxes in optically thick cells (the original Sweep3D's ``ifixup``
option addresses exactly this).  With ``fixup=True`` the kernel applies
the classic set-to-zero rebalance: any negative outgoing face flux is
clamped to zero and the cell flux is recomputed from the cell balance

    psi_c * (sigma + sum_{d not fixed} c_d)
        = S + sum_{d not fixed} c_d * psi_in_d
            + sum_{d fixed} (c_d / 2) * psi_in_d

with ``c_d = 2 mu_d / delta_d``; the set of fixed directions grows
monotonically, so at most four passes converge (three mask growths
plus a clean recompute).  With non-negative inputs the result is
non-negative in both cell and face fluxes, while preserving the
particle balance the solver checks.  (The seed kernel capped the loop
at three passes, so a negative discovered on the third pass could
escape uncorrected; the two agree bit for bit everywhere that cap was
sufficient.)  The per-cell iteration is elementwise and its fixed sets
grow monotonically, so converged cells recompute to the same bits on
any extra pass their step-mates force — which is why regrouping cells
from the seed's 2-D diagonals into 3-D wavefronts, or stacking blocks,
leaves every value bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.sweep3d.plan import SweepPlan, get_plan
from repro.sweep3d.quadrature import AngleSet

__all__ = ["BoundKernel", "bind_octant_kernel", "sweep_octant"]


def sweep_octant(
    sigma_t: float,
    source: np.ndarray,
    dx: float,
    dy: float,
    dz: float,
    angles: AngleSet,
    inflow_x: np.ndarray,
    inflow_y: np.ndarray,
    inflow_z: np.ndarray,
    fixup: bool = False,
):
    """Sweep one (+,+,+) octant block: a one-block :class:`BoundKernel`
    call.

    Same contract as
    :func:`repro.sweep3d.reference.reference_sweep_octant`, except that
    ``sigma_t`` must be a scalar; ``fixup`` selects the set-to-zero
    rebalance.
    """
    source = np.asarray(source, dtype=np.float64)
    I, J, K = source.shape
    M = angles.n_angles
    if inflow_x.shape != (J, K, M):
        raise ValueError(f"inflow_x must be (J, K, M)={J, K, M}, got {inflow_x.shape}")
    if inflow_y.shape != (I, K, M):
        raise ValueError(f"inflow_y must be (I, K, M)={I, K, M}, got {inflow_y.shape}")
    if inflow_z.shape != (I, J, M):
        raise ValueError(f"inflow_z must be (I, J, M)={I, J, M}, got {inflow_z.shape}")
    kernel = bind_octant_kernel(
        sigma_t, dx, dy, dz, angles, get_plan(I, J, K, M), fixup=fixup
    )
    phi, out_x, out_y, out_z = kernel(
        source[None], inflow_x[None], inflow_y[None], inflow_z[None]
    )
    return phi[0], out_x[0], out_y[0], out_z[0]


class BoundKernel:
    """The diamond-difference sweep of a stack of blocks, with
    everything but the data bound ahead.

    The distributed sweep evaluates its blocks level by level (see
    :mod:`repro.sweep3d.parallel`): every block of one wavefront level,
    across all ranks and octants, goes through **one** call, with a
    leading block axis on the source and on every face.  Its cost is
    numpy *call dispatch*, not arithmetic, so a ``BoundKernel`` binds
    geometry (the plan), a **scalar** total cross-section, cell
    spacings, the ordinate set and the fixup scheme once, and shapes
    the per-step body around one fused face buffer:

    * the three face surfaces live stacked in a single face-major
      ``(J*K + I*K + I*J, R, M)`` array, gathered and scattered through
      one precomputed concatenated index vector per step;
    * the ``cx/cy/cz`` multiplies and the ``2*center - in`` outflow
      updates run once over a ``(3, n, R, M)`` stack;
    * source values and scalar fluxes have no cross-step dataflow, so
      they are gathered once before the step loop and scattered once
      after it.

    Every block is **bit-identical** to the seed kernel on its own, and
    wherever it sits in a stack.  The elementwise steps are exact IEEE
    operations in the seed's order — ``((cx*in_x + src) + cy*in_y) +
    cz*in_z`` and the ``0.0 + p`` flux store.  The angle reduction is
    one stacked ``matmul`` whose per-block operand is the same
    ``(n, M)`` matrix as a one-block call (only its row stride
    differs), so BLAS runs the same ``gemv`` (``ddot`` for one-row
    steps) per block; the plan's one-row fix-up rows are one stacked
    ``(1, M) @ (M,)`` matmul, a ``ddot`` per row, exactly as the seed's
    single-row reductions.  Inflow shapes are trusted, not validated:
    the callers only stack plan-shaped faces.
    """

    __slots__ = (
        "plan", "shape", "fixup", "_steps", "_sigma", "_denom", "_w", "_c3",
        "_faces",
    )

    def __init__(
        self,
        plan: SweepPlan,
        sigma_t: float,
        dx: float,
        dy: float,
        dz: float,
        angles: AngleSet,
        fixup: bool = False,
    ):
        I, J, K = plan.shape
        self.plan = plan
        self.shape = (I, J, K)
        self.fixup = fixup
        cx = 2.0 * angles.mu / dx
        cy = 2.0 * angles.eta / dy
        cz = 2.0 * angles.xi / dz
        self._sigma = sigma_t
        self._denom = sigma_t + (cx + cy + cz)
        self._w = angles.weights
        # (3, 1, 1, M) per-axis constants, broadcast over the (3, n, R, M) stack
        self._c3 = np.ascontiguousarray(np.stack([cx, cy, cz])[:, None, None, :])
        JK, IK = J * K, I * K
        self._faces = (JK, IK, I * J)
        steps = []
        for d, (_cell, xf, yf, zf, fix) in enumerate(plan.steps):
            steps.append((
                int(plan.offsets[d]),
                int(plan.offsets[d + 1]),
                np.concatenate([xf, JK + yf, JK + IK + zf]),
                np.array(fix, dtype=np.intp) if fix else None,
            ))
        self._steps = tuple(steps)

    def __call__(
        self,
        source: np.ndarray,
        inflow_x: np.ndarray,
        inflow_y: np.ndarray,
        inflow_z: np.ndarray,
    ):
        """Sweep ``R`` blocks of one octant geometry at once.

        ``source`` is ``(R, I, J, K)`` and the inflows ``(R, J, K, M)``
        / ``(R, I, K, M)`` / ``(R, I, J, M)``; returns
        ``(phi, out_x, out_y, out_z)`` with the same leading axis, block
        ``r`` independent of the others.  The outflow faces are views of
        one freshly allocated buffer.
        """
        I, J, K = self.shape
        JK, IK, IJ = self._faces
        plan = self.plan
        M = plan.n_angles
        R = source.shape[0]
        fixup, denom, w, c3 = self.fixup, self._denom, self._w, self._c3
        # Face-major working layout: a step's gather and scatter move
        # whole (R, M) rows, and each block's center is still an
        # (n, M) matrix for BLAS, just with a row stride of R*M.
        psi = np.empty((JK + IK + IJ, R, M))
        psi[:JK] = inflow_x.reshape(R, JK, M).transpose(1, 0, 2)
        psi[JK:JK + IK] = inflow_y.reshape(R, IK, M).transpose(1, 0, 2)
        psi[JK + IK:] = inflow_z.reshape(R, IJ, M).transpose(1, 0, 2)
        src = source.reshape(R, -1).T.take(plan.cell_idx, 0)[:, :, None]
        p_all = np.empty((R, plan.n_cells))
        for o0, o1, idx3, fix in self._steps:
            n = o1 - o0
            in3 = psi.take(idx3, 0).reshape(3, n, R, M)
            if fixup:
                center, out3 = self._rebalance(src[o0:o1], in3)
            else:
                prod3 = c3 * in3
                center = np.add(prod3[0], src[o0:o1])
                center += prod3[1]
                center += prod3[2]
                center /= denom
            per_block = center.transpose(1, 0, 2)
            p = np.matmul(per_block, w, out=p_all[:, o0:o1])
            if fix is not None:
                p[:, fix] = np.matmul(per_block[:, fix, None, :], w)[:, :, 0]
            if not fixup:
                center *= 2.0
                out3 = np.subtract(center, in3, out=in3)
            psi[idx3] = out3.reshape(3 * n, R, M)
        del src
        phi = np.empty((R, plan.n_cells))
        phi[:, plan.cell_idx] = np.add(p_all, 0.0, out=p_all)  # 0.0 + p: the seed's "+="
        psi = psi.transpose(1, 0, 2)
        return (
            phi.reshape(R, I, J, K),
            psi[:, :JK].reshape(R, J, K, M),
            psi[:, JK:JK + IK].reshape(R, I, K, M),
            psi[:, JK + IK:].reshape(R, I, J, M),
        )

    def _rebalance(self, s: np.ndarray, in3: np.ndarray):
        """The set-to-zero fixup of one step's ``(3, n, R, M)`` inflow
        stack; returns ``(center, out3)`` once the fixed sets stop
        growing.  The sums keep the seed fixup's operation order,
        ``((s + t_x) + t_y) + t_z`` over ``((sigma + d_x) + d_y) + d_z``,
        so every block keeps its bits."""
        c3, sigma_t = self._c3, self._sigma
        fixed = np.zeros(in3.shape, dtype=bool)
        while True:
            t = np.where(fixed, 0.5 * c3 * in3, c3 * in3)
            d = np.where(fixed, 0.0, c3)
            center = (s + t[0] + t[1] + t[2]) / (sigma_t + d[0] + d[1] + d[2])
            out3 = np.where(fixed, 0.0, 2.0 * center - in3)
            neg = out3 < 0.0
            if not neg.any():
                return center, out3
            fixed |= neg


def bind_octant_kernel(
    sigma_t: float,
    dx: float,
    dy: float,
    dz: float,
    angles: AngleSet,
    plan: SweepPlan,
    fixup: bool = False,
) -> BoundKernel:
    """The plan's cached :class:`BoundKernel` for one parameter set.

    Keyed by the scalar cross-section, the spacings, the ordinate bytes
    and the fixup scheme; the same few combinations recur across every
    K-block, octant, iteration — and, through the plan cache, across
    runs.
    """
    if np.ndim(sigma_t) != 0:
        raise ValueError("the sweep kernel requires a scalar sigma_t")
    key = (
        float(sigma_t), dx, dy, dz,
        angles.mu.tobytes(), angles.eta.tobytes(),
        angles.xi.tobytes(), angles.weights.tobytes(), fixup,
    )
    cache = plan._bound_cache
    bound = cache.get(key)
    if bound is None:
        bound = BoundKernel(plan, float(sigma_t), dx, dy, dz, angles, fixup)
        if len(cache) >= 8:
            cache.pop(next(iter(cache)))
        cache[key] = bound
    return bound
