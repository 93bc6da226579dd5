"""Vectorized diamond-difference sweep kernels, driven by a sweep plan.

The dependency structure of a (+,+,+) sweep is ``(i, j, k)`` needing
``(i-1, j, k)``, ``(i, j-1, k)``, ``(i, j, k-1)``: every cell on the
3-D anti-diagonal ``i + j + k = d`` depends only on diagonal ``d - 1``,
so the kernel walks the :class:`repro.sweep3d.plan.SweepPlan`'s
precomputed wavefront steps — ``I+J+K-2`` of them, against the
``K x (I+J-1)`` per-K-plane steps of the seed implementation — and
vectorizes each over cells and angles simultaneously, the numpy
analogue of the paper's SPE port batching its innermost loop for SIMD.

Results match :func:`repro.sweep3d.reference.reference_sweep_octant` to
floating-point round-off, and the seed-commit ``sweep_octant`` **bit
for bit** (the plan records which rows must take BLAS's one-row
reduction path; see :mod:`repro.sweep3d.plan`) — both asserted by the
perf smoke tier.

:func:`sweep_octants_batched` additionally runs all eight octants of a
vacuum-boundary sweep in one pass, stacking their independent inflows
into the trailing angle axis (``8`` octants side by side) with the
octant flips applied through the plan's precomputed index maps — one
kernel invocation per transport sweep instead of eight.
:class:`BoundKernel` sweeps a stack of same-geometry blocks per call —
the distributed sweep's one call per wavefront level — each block bit
for bit what :func:`sweep_octant` gives it alone.
"""

from __future__ import annotations

import numpy as np

from repro.sweep3d.plan import SweepPlan, get_plan, reduce_rows
from repro.sweep3d.quadrature import OCTANTS, AngleSet

__all__ = ["BoundKernel", "bind_octant_kernel", "sweep_octant", "sweep_octants_batched"]


def _flat_sigma(sigma_t, shape: tuple[int, int, int]):
    """Raveled total cross-section, or None when it is a scalar (the
    common case, served by a precomputed per-angle denominator)."""
    if type(sigma_t) is float or np.ndim(sigma_t) == 0:
        return None
    sig = np.broadcast_to(np.asarray(sigma_t, dtype=np.float64), shape)
    return np.ascontiguousarray(sig).reshape(-1)


def sweep_octant(
    sigma_t: np.ndarray | float,
    source: np.ndarray,
    dx: float,
    dy: float,
    dz: float,
    angles: AngleSet,
    inflow_x: np.ndarray,
    inflow_y: np.ndarray,
    inflow_z: np.ndarray,
    plan: SweepPlan | None = None,
):
    """Sweep one (+,+,+) octant, vectorized over 3-D wavefronts.

    Same contract as
    :func:`repro.sweep3d.reference.reference_sweep_octant`; ``plan``
    lets a caller pass the geometry's plan explicitly (it is looked up
    in the plan cache otherwise).
    """
    source = np.ascontiguousarray(source, dtype=np.float64)
    I, J, K = source.shape
    M = angles.n_angles
    if inflow_x.shape != (J, K, M):
        raise ValueError(f"inflow_x must be (J, K, M)={J, K, M}, got {inflow_x.shape}")
    if inflow_y.shape != (I, K, M):
        raise ValueError(f"inflow_y must be (I, K, M)={I, K, M}, got {inflow_y.shape}")
    if inflow_z.shape != (I, J, M):
        raise ValueError(f"inflow_z must be (I, J, M)={I, J, M}, got {inflow_z.shape}")
    if plan is None:
        plan = get_plan(I, J, K, M)

    cx, cy, cz, c_sum, w = plan.angle_constants(dx, dy, dz, angles)
    src = source.reshape(-1)
    sig = _flat_sigma(sigma_t, (I, J, K))
    denom = None if sig is not None else sigma_t + c_sum  # (M,)

    # Running face fluxes; the final states ARE the outflows.
    psi_x = np.array(inflow_x, dtype=np.float64, copy=True).reshape(J * K, M)
    psi_y = np.array(inflow_y, dtype=np.float64, copy=True).reshape(I * K, M)
    psi_z = np.array(inflow_z, dtype=np.float64, copy=True).reshape(I * J, M)
    phi = np.empty(I * J * K)

    ws = plan.workspace(M)
    w_in_x, w_in_y, w_in_z = ws["in_x"], ws["in_y"], ws["in_z"]
    w_numer, w_center, w_two, w_rows = (
        ws["numer"], ws["center"], ws["two"], ws["rows"],
    )

    # The gathers go through the bound ndarray methods rather than the
    # ``np.take`` wrapper: at full-machine scale the kernel is invoked
    # tens of thousands of times on tiny blocks and the fromnumeric
    # dispatch layer alone is seconds of wall-clock.  The C routine —
    # and therefore every bit of the result — is identical.
    for cell, xf, yf, zf, fix, _fix8 in plan.steps:
        n = cell.shape[0]
        in_x = psi_x.take(xf, 0, w_in_x[:n])
        in_y = psi_y.take(yf, 0, w_in_y[:n])
        in_z = psi_z.take(zf, 0, w_in_z[:n])
        numer = np.multiply(cx, in_x, out=w_numer[:n])
        numer += src.take(cell, None, w_rows[:n])[:, None]
        numer += np.multiply(cy, in_y, out=w_two[:n])
        numer += np.multiply(cz, in_z, out=w_two[:n])
        if denom is not None:
            center = np.divide(numer, denom, out=w_center[:n])
        else:
            center = np.divide(
                numer,
                sig.take(cell, None, w_rows[:n])[:, None] + c_sum,
                out=w_center[:n],
            )
        p = reduce_rows(center, w, fix, out=w_rows[:n])
        phi[cell] = np.add(p, 0.0, out=p)  # 0.0 + p: the seed's "+=" on zeros
        two = np.multiply(2.0, center, out=w_two[:n])
        psi_x[xf] = np.subtract(two, in_x, out=in_x)
        psi_y[yf] = np.subtract(two, in_y, out=in_y)
        psi_z[zf] = np.subtract(two, in_z, out=in_z)

    return (
        phi.reshape(I, J, K),
        psi_x.reshape(J, K, M),
        psi_y.reshape(I, K, M),
        psi_z.reshape(I, J, M),
    )


class BoundKernel:
    """:func:`sweep_octant` over a stack of blocks, with everything but
    the data bound ahead.

    The distributed sweep evaluates its blocks level by level (see
    :mod:`repro.sweep3d.parallel`): every block of one wavefront level,
    across all ranks and octants, goes through **one** call, with a
    leading block axis on the source and on every face.  Its cost is
    numpy *call dispatch*, not arithmetic, so a ``BoundKernel`` binds
    geometry (the plan), a **scalar** total cross-section, cell
    spacings, and the ordinate set once, and shapes the per-step body
    around one fused face buffer:

    * the three face surfaces live stacked in a single face-major
      ``(J*K + I*K + I*J, R, M)`` array, gathered and scattered through
      one precomputed concatenated index vector per step;
    * the ``cx/cy/cz`` multiplies and the ``2*center - in`` outflow
      updates run once over a ``(3, n, R, M)`` stack;
    * source values and scalar fluxes have no cross-step dataflow, so
      they are gathered once before the step loop and scattered once
      after it.

    Every block stays **bit-identical** to :func:`sweep_octant` on its
    own (asserted in the perf smoke tier and by property tests).  The
    elementwise steps are exact IEEE operations in the seed's order —
    ``((cx*in_x + src) + cy*in_y) + cz*in_z`` and the ``0.0 + p`` flux
    store — wherever a block sits in the stack.  The angle reduction is
    one stacked ``matmul`` whose per-block operand is the same
    ``(n, M)`` matrix as an unstacked call (only its row stride
    differs), so BLAS runs the same ``gemv`` (``ddot`` for one-row
    steps) per block; the plan's one-row
    fix-up rows are one stacked ``(1, M) @ (M,)`` matmul, a ``ddot``
    per row, exactly as the seed's single-row reductions.  Inflow shapes
    are trusted, not validated: the caller is the block graph, which
    only stacks plan-shaped faces.
    """

    __slots__ = ("plan", "shape", "_steps", "_denom", "_w", "_c3", "_faces")

    def __init__(
        self,
        plan: SweepPlan,
        sigma_t: float,
        dx: float,
        dy: float,
        dz: float,
        angles: AngleSet,
    ):
        if np.ndim(sigma_t) != 0:
            raise ValueError("BoundKernel requires a scalar sigma_t")
        I, J, K = plan.shape
        self.plan = plan
        self.shape = (I, J, K)
        cx, cy, cz, c_sum, w = plan.angle_constants(dx, dy, dz, angles)
        self._denom = sigma_t + c_sum
        self._w = w
        # (3, 1, 1, M) per-axis constants, broadcast over the (3, n, R, M) stack
        self._c3 = np.ascontiguousarray(np.stack([cx, cy, cz])[:, None, None, :])
        JK, IK = J * K, I * K
        self._faces = (JK, IK, I * J)
        steps = []
        for d, (_cell, xf, yf, zf, fix, _fix8) in enumerate(plan.steps):
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
        ``r`` equal bit for bit to :func:`sweep_octant` on block ``r``.
        The outflow faces are views of one freshly allocated buffer.
        """
        I, J, K = self.shape
        JK, IK, IJ = self._faces
        plan = self.plan
        M = plan.n_angles
        R = source.shape[0]
        denom, w, c3 = self._denom, self._w, self._c3
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
            prod3 = c3 * in3
            center = np.add(prod3[0], src[o0:o1])
            center += prod3[1]
            center += prod3[2]
            center /= denom
            per_block = center.transpose(1, 0, 2)
            p = np.matmul(per_block, w, out=p_all[:, o0:o1])
            if fix is not None:
                p[:, fix] = np.matmul(per_block[:, fix, None, :], w)[:, :, 0]
            center *= 2.0
            psi[idx3] = np.subtract(center, in3, out=in3).reshape(3 * n, R, M)
        phi = np.empty((R, plan.n_cells))
        phi[:, plan.cell_idx] = np.add(p_all, 0.0, out=p_all)  # 0.0 + p: the seed's "+="
        psi = psi.transpose(1, 0, 2)
        return (
            phi.reshape(R, I, J, K),
            psi[:, :JK].reshape(R, J, K, M),
            psi[:, JK:JK + IK].reshape(R, I, K, M),
            psi[:, JK + IK:].reshape(R, I, J, M),
        )


def bind_octant_kernel(
    sigma_t: float,
    dx: float,
    dy: float,
    dz: float,
    angles: AngleSet,
    plan: SweepPlan,
) -> BoundKernel:
    """The plan's cached :class:`BoundKernel` for one parameter set.

    Keyed like the plan's angle-constant memo (spacings plus ordinate
    bytes, plus the scalar cross-section); the same few combinations
    recur across every K-block, octant, iteration — and, through the
    plan cache, across runs.
    """
    key = (
        float(sigma_t), dx, dy, dz,
        angles.mu.tobytes(), angles.eta.tobytes(),
        angles.xi.tobytes(), angles.weights.tobytes(),
    )
    cache = plan._bound_cache
    bound = cache.get(key)
    if bound is None:
        bound = BoundKernel(plan, float(sigma_t), dx, dy, dz, angles)
        if len(cache) >= 8:
            cache.pop(next(iter(cache)))
        cache[key] = bound
    return bound


def sweep_octants_batched(
    sigma_t: np.ndarray | float,
    source: np.ndarray,
    dx: float,
    dy: float,
    dz: float,
    angles: AngleSet,
    plan: SweepPlan | None = None,
):
    """All eight octants of one vacuum-inflow transport sweep, batched.

    The eight octants of a sweep are independent given their inflows;
    with vacuum (all-zero) inflows they can run side by side, stacked
    along a new octant axis ahead of the angle axis, with each octant's
    array flips realized by the plan's precomputed flat index maps
    instead of eight ``np.flip`` copies and eight kernel calls.

    Returns ``(phi, out_x, out_y, out_z)``: the scalar flux summed over
    octants in global orientation (octant-id accumulation order, bit-
    identical to the per-octant solver loop), and per-octant outflow
    faces in **sweep orientation** — ``out_x[o]`` is what
    :func:`sweep_octant` would have returned for octant ``o`` —
    shaped ``(8, J, K, M)`` / ``(8, I, K, M)`` / ``(8, I, J, M)``.
    """
    source = np.ascontiguousarray(source, dtype=np.float64)
    I, J, K = source.shape
    M = angles.n_angles
    if plan is None:
        plan = get_plan(I, J, K, M)
    n_oct = len(OCTANTS)

    cx, cy, cz, c_sum, w = plan.angle_constants(dx, dy, dz, angles)
    flip = plan.octant_maps
    src8 = source.reshape(-1)[flip]  # (n_cells, 8): per-octant flipped sources
    sig = _flat_sigma(sigma_t, (I, J, K))
    if sig is None:
        denom = sigma_t + c_sum  # (M,), broadcasts over (n, 8, M)
        sig8 = None
    else:
        denom = None
        sig8 = sig[flip]

    psi_x = np.zeros((J * K, n_oct, M))
    psi_y = np.zeros((I * K, n_oct, M))
    psi_z = np.zeros((I * J, n_oct, M))
    phi8 = np.empty((plan.n_cells, n_oct))

    for cell, xf, yf, zf, _fix, fix8 in plan.steps:
        in_x = psi_x[xf]
        in_y = psi_y[yf]
        in_z = psi_z[zf]
        numer = cx * in_x
        numer += src8[cell][:, :, None]
        numer += cy * in_y
        numer += cz * in_z
        if denom is not None:
            center = numer / denom
        else:
            center = numer / (sig8[cell][:, :, None] + c_sum)
        p = reduce_rows(center, w, fix8)
        phi8[cell] = p + 0.0  # 0.0 + p: the seed's "+=" on zeros
        two = 2.0 * center
        psi_x[xf] = two - in_x
        psi_y[yf] = two - in_y
        psi_z[zf] = two - in_z

    # Un-flip and accumulate in octant order (matching the sequential
    # solver's `phi += _flip(phi_oct)` addition order bit for bit).
    phi = np.zeros(plan.n_cells)
    for o in range(n_oct):
        phi += phi8[flip[:, o], o]

    out_x = np.ascontiguousarray(psi_x.reshape(J, K, n_oct, M).transpose(2, 0, 1, 3))
    out_y = np.ascontiguousarray(psi_y.reshape(I, K, n_oct, M).transpose(2, 0, 1, 3))
    out_z = np.ascontiguousarray(psi_z.reshape(I, J, n_oct, M).transpose(2, 0, 1, 3))
    return phi.reshape(I, J, K), out_x, out_y, out_z
