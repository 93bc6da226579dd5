"""Sequential Sweep3D driver: source iteration over all eight octants.

Boundaries are vacuum by default; any subset of the six faces can be
made **reflective** (the original Sweep3D supports this), in which case
the angular flux leaving through that face re-enters with the mirrored
direction — implemented by handing one octant's outgoing face flux to
its mirror octant as inflow.  Because the per-octant angle sets share
the same positive cosines and the two octants of a mirror pair flip the
*other* two axes identically, the arrays exchange with no reshuffling.
Reflection uses each mirror octant's most recent outflow (within the
current sweep when the mirror already ran, else the previous
iteration's), the standard lagged treatment that converges with source
iteration.

Each source iteration sweeps the eight octants of
:data:`repro.sweep3d.quadrature.OCTANTS`; negative-direction octants are
realized by flipping the problem arrays so the one (+,+,+) block kernel,
:class:`repro.sweep3d.kernel.BoundKernel`, serves all of them.  With
vacuum inflows the eight octants are independent and sweep as one
8-block stack; a mirror octant needs its partner's outflow, so
reflective (or banked ``face_memory``) sweeps run the octants in order,
one block each.  The driver tracks the exact per-sweep
particle balance

    leakage + sigma_t * sum(phi) V  =  sum(source) V + reflected influx

which must close to round-off every iteration — the strongest available
correctness invariant for a transport sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import bind_octant_kernel
from repro.sweep3d.plan import get_plan
from repro.sweep3d.quadrature import OCTANTS, AngleSet, make_angle_set

__all__ = ["SweepResult", "sweep_all_octants", "solve", "ALL_REFLECTIVE", "FACES"]

#: The six domain faces, named by axis and side.
FACES = frozenset({
    ("x", "low"), ("x", "high"),
    ("y", "low"), ("y", "high"),
    ("z", "low"), ("z", "high"),
})

#: Convenience: a fully reflective box (the infinite-medium surrogate).
ALL_REFLECTIVE = FACES

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


def _mirror_octant_id(octant, axis: str) -> int:
    """The octant differing from ``octant`` only in ``axis``'s sign."""
    signs = list(octant.signs)
    signs[_AXIS_INDEX[axis]] *= -1
    for other in OCTANTS:
        if list(other.signs) == signs:
            return other.id
    raise AssertionError("unreachable: octants cover all sign combinations")


def _exit_face(octant, axis: str) -> tuple[str, str]:
    """The global face this octant's sweep exits through along ``axis``."""
    sign = octant.signs[_AXIS_INDEX[axis]]
    return (axis, "high" if sign > 0 else "low")


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a source-iteration solve."""

    phi: np.ndarray
    iterations: int
    converged: bool
    rel_change: float
    leakage: float
    balance_residual: float


#: per-signs reversal slices (``None`` marks the identity octant) —
#: ``np.flip`` builds exactly these slices on every call; caching them
#: keeps the 8-octant inner loops off its axis-normalization machinery
_FLIP_SLICES: dict[tuple[int, int, int], tuple | None] = {}


def _flip(arr: np.ndarray, signs: tuple[int, int, int]) -> np.ndarray:
    """Flip a cell array along each negative-direction axis."""
    try:
        sl = _FLIP_SLICES[signs]
    except KeyError:
        sl = tuple(
            slice(None, None, -1) if s < 0 else slice(None) for s in signs
        )
        if all(s >= 0 for s in signs):
            sl = None
        _FLIP_SLICES[signs] = sl
    return arr if sl is None else arr[sl]


def sweep_all_octants(
    inp: SweepInput,
    source: np.ndarray,
    angles: AngleSet,
    fixup: bool = False,
    reflective: frozenset = frozenset(),
    face_memory: dict | None = None,
) -> tuple[np.ndarray, float, float]:
    """One full transport sweep of ``source`` over all eight octants.

    Returns ``(phi, leakage, reflected_net)``: the new scalar flux, the
    flux leaving through non-reflective faces, and the *net* reflected
    term — flux re-entering from the mirrors minus flux banked into
    them this sweep (zero with all-vacuum boundaries, and tending to
    zero at convergence).  The exact per-sweep balance is then

        leakage + sigma_t * sum(phi) V = sum(source) V + reflected_net

    ``fixup`` selects the set-to-zero negative-flux rebalance.
    ``reflective`` names mirrored faces (subset of :data:`FACES`);
    ``face_memory`` carries their stored outflows across sweeps (pass
    the same dict to every call of an iteration loop).

    Flux and leakage accumulate in octant order whichever way the
    octants are stacked, so both paths give the same bits.
    """
    bad = set(reflective) - FACES
    if bad:
        raise ValueError(f"unknown reflective faces: {sorted(bad)}")
    I, J, K = inp.it, inp.jt, inp.kt
    M = angles.n_angles
    kernel = bind_octant_kernel(
        inp.sigma_t, inp.dx, inp.dy, inp.dz, angles, get_plan(I, J, K, M),
        fixup=fixup,
    )
    area = {"x": inp.dy * inp.dz, "y": inp.dx * inp.dz, "z": inp.dx * inp.dy}
    cosine = {"x": angles.mu, "y": angles.eta, "z": angles.xi}

    def current(face: np.ndarray, axis: str) -> float:
        # einsum's summation order depends on the operand's strides, so
        # a stacked kernel's strided face view is summed as a contiguous
        # copy, like the one-block faces
        face = np.ascontiguousarray(face)
        return float(
            area[axis] * np.einsum("abm,m->", face, angles.weights * cosine[axis])
        )

    phi = np.zeros((I, J, K), dtype=np.float64)
    leakage = 0.0
    if not reflective and not face_memory:
        # Vacuum: no octant reads another's outflow, so all eight sweep
        # as one stack (the reflected influx is a sum of +0.0 terms).
        n_oct = len(OCTANTS)
        phi8, *outs = kernel(
            np.stack([_flip(source, octant.signs) for octant in OCTANTS]),
            np.broadcast_to(0.0, (n_oct, J, K, M)),
            np.broadcast_to(0.0, (n_oct, I, K, M)),
            np.broadcast_to(0.0, (n_oct, I, J, M)),
        )
        for octant in OCTANTS:
            phi += _flip(phi8[octant.id], octant.signs)
            for axis, out in zip("xyz", outs):
                leakage += current(out[octant.id], axis)
        return phi, leakage, 0.0

    memory = face_memory if face_memory is not None else {}
    influx = 0.0
    zero_in = {
        "x": np.zeros((J, K, M)),
        "y": np.zeros((I, K, M)),
        "z": np.zeros((I, J, M)),
    }
    for octant in OCTANTS:
        inflows = []
        for axis in "xyz":
            stored = memory.get((octant.id, axis))
            face = stored if stored is not None else zero_in[axis]
            influx += current(face, axis)
            inflows.append(face[None])
        phi1, *outs = kernel(_flip(source, octant.signs)[None], *inflows)
        phi += _flip(phi1[0], octant.signs)
        for axis, out in zip("xyz", outs):
            outflux = current(out[0], axis)
            if _exit_face(octant, axis) in reflective:
                # Hand the face flux to the mirror octant; the other
                # two axes' flips match, so no reshuffling is needed.
                memory[(_mirror_octant_id(octant, axis), axis)] = out[0]
                influx -= outflux  # banked for the mirror, not leaked
            else:
                leakage += outflux
    return phi, leakage, influx


def solve(
    inp: SweepInput,
    max_iterations: int = 100,
    angles: AngleSet | None = None,
    fixup: bool = False,
    external_source: np.ndarray | None = None,
    reflective: frozenset = frozenset(),
) -> SweepResult:
    """Source-iterate to convergence (or ``max_iterations``).

    The fixed point satisfies ``phi = q / (sigma_t - sigma_s)`` in an
    infinite medium; with vacuum boundaries the flux sags toward the
    faces and the solver instead validates itself through the particle
    balance recorded in the result.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    angles = angles or make_angle_set(inp.mmi)
    I, J, K = inp.it, inp.jt, inp.kt
    cell_volume = inp.dx * inp.dy * inp.dz
    phi = np.zeros((I, J, K), dtype=np.float64)
    if external_source is not None:
        if external_source.shape != (I, J, K):
            raise ValueError("external_source must match the grid shape")
        external = np.asarray(external_source, dtype=np.float64)
        if not np.isfinite(external).all():
            raise ValueError("external_source must be finite")
    else:
        external = np.full((I, J, K), inp.q, dtype=np.float64)

    rel_change = np.inf
    leakage = 0.0
    converged = False
    iterations = 0
    balance_residual = np.inf
    face_memory: dict = {}
    for iterations in range(1, max_iterations + 1):
        source = external + inp.sigma_s * phi
        phi_new, leakage, reflected_net = sweep_all_octants(
            inp, source, angles, fixup=fixup,
            reflective=reflective, face_memory=face_memory,
        )
        # Per-sweep particle balance — an *exact* identity of diamond
        # differencing, valid every iteration, converged or not:
        #   leakage + sigma_t*sum(phi_new) V = sum(source) V + reflected_net
        swept_source = float(source.sum() * cell_volume) + reflected_net
        removal = float(inp.sigma_t * phi_new.sum() * cell_volume)
        imbalance = abs(leakage + removal - swept_source)
        balance_residual = imbalance / swept_source if swept_source else imbalance
        denom = np.abs(phi_new).max()
        rel_change = float(
            np.abs(phi_new - phi).max() / denom if denom > 0 else 0.0
        )
        phi = phi_new
        if rel_change < inp.epsi:
            converged = True
            break
    return SweepResult(
        phi=phi,
        iterations=iterations,
        converged=converged,
        rel_change=rel_change,
        leakage=leakage,
        balance_residual=balance_residual,
    )
