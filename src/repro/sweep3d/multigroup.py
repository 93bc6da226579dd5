"""Multigroup transport — the natural extension of the paper's kernel.

Sweep3D proper "solves a single-group time-independent discrete
ordinates problem" (§V-A); production transport codes sweep many energy
groups.  With downscatter-only coupling (no upscatter — particles only
lose energy), the group system solves exactly in one pass from the
fastest group down: group ``g``'s external source is its fixed source
plus scatter arriving from groups above it, and each group is then an
independent single-group problem handled by the §V solver.

This multiplies the sweep work by the group count — on Roadrunner,
``G`` back-to-back wavefront pipelines per iteration — without
changing any per-group machinery, which is why the paper's single-group
kernel is the right unit of reproduction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import inf

import numpy as np

from repro.sweep3d.input import SweepInput
from repro.sweep3d.quadrature import make_angle_set
from repro.sweep3d.solver import SweepResult, solve

__all__ = ["MultigroupInput", "MultigroupResult", "solve_multigroup"]


@dataclass(frozen=True)
class MultigroupInput:
    """A G-group problem on the geometry of ``base``.

    ``sigma_s[g_to, g_from]`` couples groups; only the diagonal
    (within-group) and the lower triangle (downscatter: ``g_to >
    g_from``, energy decreasing with index) may be nonzero.
    """

    base: SweepInput
    sigma_t: tuple[float, ...]
    sigma_s: tuple[tuple[float, ...], ...]
    q: tuple[float, ...]

    def __post_init__(self):
        g = len(self.sigma_t)
        if g < 1:
            raise ValueError("need at least one group")
        if len(self.q) != g or len(self.sigma_s) != g or any(
            len(row) != g for row in self.sigma_s
        ):
            raise ValueError("sigma_t, sigma_s, q must agree on group count")
        # Written so that NaN fails every guard, as in SweepInput.
        for gt in range(g):
            if not 0 < self.sigma_t[gt] < inf:
                raise ValueError(f"group {gt}: sigma_t must be positive and finite")
            if not 0 <= self.q[gt] < inf:
                raise ValueError(f"group {gt}: source must be >= 0 and finite")
            for gf in range(g):
                s = self.sigma_s[gt][gf]
                if not 0 <= s < inf:
                    raise ValueError(
                        "scattering cross-sections must be >= 0 and finite"
                    )
                if gf > gt and s != 0:
                    raise ValueError(
                        "upscatter (sigma_s[g_to][g_from] with g_from > g_to) "
                        "is not supported by the one-pass solve"
                    )
            within = self.sigma_s[gt][gt]
            if within >= self.sigma_t[gt]:
                raise ValueError(
                    f"group {gt}: within-group scattering must stay below "
                    "sigma_t for convergent source iteration"
                )

    @property
    def groups(self) -> int:
        return len(self.sigma_t)


@dataclass(frozen=True)
class MultigroupResult:
    """Per-group fluxes and diagnostics."""

    phi: np.ndarray  # (G, I, J, K)
    group_results: tuple[SweepResult, ...]

    @property
    def groups(self) -> int:
        return len(self.group_results)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.group_results)

    def total_flux(self) -> np.ndarray:
        """Energy-integrated scalar flux, (I, J, K)."""
        return self.phi.sum(axis=0)


def solve_multigroup(
    mg: MultigroupInput,
    max_iterations: int = 100,
    fixup: bool = False,
) -> MultigroupResult:
    """One-pass downscatter solve: fast groups first."""
    base = mg.base
    shape = (base.it, base.jt, base.kt)
    # One ordinate set (and hence one cached sweep plan + memoized angle
    # constants) serves every group: the geometry never changes.
    angles = make_angle_set(base.mmi)
    phi = np.zeros((mg.groups, *shape))
    results = []
    for g in range(mg.groups):
        external = np.full(shape, mg.q[g], dtype=np.float64)
        for upstream in range(g):
            coupling = mg.sigma_s[g][upstream]
            if coupling:
                external += coupling * phi[upstream]
        inp_g = dataclasses.replace(
            base,
            sigma_t=mg.sigma_t[g],
            sigma_s=mg.sigma_s[g][g],
            q=mg.q[g] if mg.q[g] > 0 else 0.0,
        )
        result = solve(
            inp_g,
            max_iterations=max_iterations,
            angles=angles,
            fixup=fixup,
            external_source=external,
        )
        phi[g] = result.phi
        results.append(result)
    return MultigroupResult(phi=phi, group_results=tuple(results))
