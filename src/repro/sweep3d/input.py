"""The Sweep3D input deck.

Mirrors the original code's parameters: per-process subgrid dimensions
``it x jt x kt``, the K-blocking factor ``mk`` (at most one block of
``kt/mk`` K-planes is computed per pipeline step), the angle-blocking
factor ``mmi`` (number of angles per octant processed together — the
paper fixes it at 6), and the material/source terms of the single-group
problem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

__all__ = ["SweepInput"]


@dataclass(frozen=True)
class SweepInput:
    """One Sweep3D problem instance (per-process subgrid in weak scaling).

    Attributes
    ----------
    it, jt, kt:
        Per-process subgrid cells in I, J, K.
    mk:
        K-blocking factor: the sweep pipelines blocks of ``mk`` K-planes
        (the paper's runs use MK=20 at scale, MK=10 for Table IV).
    mmi:
        Angles per octant (fixed at 6 in the paper's port).
    dx, dy, dz:
        Cell widths.
    sigma_t, sigma_s:
        Total and scattering macroscopic cross-sections (sigma_s <
        sigma_t keeps source iteration convergent).
    q:
        Flat isotropic external source density.
    iterations:
        Source-iteration count for a timed run.
    epsi:
        Convergence criterion on the scalar-flux relative change.
    """

    it: int = 5
    jt: int = 5
    kt: int = 400
    mk: int = 20
    mmi: int = 6
    dx: float = 1.0
    dy: float = 1.0
    dz: float = 1.0
    sigma_t: float = 1.0
    sigma_s: float = 0.5
    q: float = 1.0
    iterations: int = 1
    epsi: float = 1e-6

    def __post_init__(self):
        if min(self.it, self.jt, self.kt) < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not 1 <= self.mk <= self.kt:
            raise ValueError(f"mk must be in 1..kt, got {self.mk}")
        if self.kt % self.mk != 0:
            raise ValueError(f"kt={self.kt} not divisible by mk={self.mk}")
        if self.mmi < 1:
            raise ValueError("mmi must be >= 1")
        # Written so that NaN fails every guard: a non-finite width,
        # cross-section, source or tolerance would sweep to a NaN (or
        # all-zero) flux that still reports convergence.
        if not all(0 < d < inf for d in (self.dx, self.dy, self.dz)):
            raise ValueError("cell widths must be positive and finite")
        if not 0 < self.sigma_t < inf:
            raise ValueError("sigma_t must be positive and finite")
        if not 0 <= self.sigma_s < self.sigma_t:
            raise ValueError("need 0 <= sigma_s < sigma_t for convergence")
        if not 0 <= self.q < inf:
            raise ValueError("source density must be >= 0 and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 < self.epsi < inf:
            raise ValueError("epsi must be positive and finite")

    # -- derived quantities ----------------------------------------------------
    @property
    def cells(self) -> int:
        """Cells in the per-process subgrid."""
        return self.it * self.jt * self.kt

    @property
    def k_blocks(self) -> int:
        """Number of K blocks per octant sweep (kt / mk)."""
        return self.kt // self.mk

    @property
    def cells_per_block(self) -> int:
        """Cells in one pipelined work block (it x jt x mk)."""
        return self.it * self.jt * self.mk

    @property
    def angle_work(self) -> int:
        """Cell-angle pairs per full iteration (8 octants x mmi angles)."""
        return self.cells * self.mmi * 8

    def block_angle_work(self) -> int:
        """Cell-angle pairs per pipelined block (one octant's angles)."""
        return self.cells_per_block * self.mmi

    def with_subgrid(self, it: int, jt: int, kt: int) -> "SweepInput":
        """Copy with a different subgrid (mk clamped to divide kt)."""
        mk = self.mk if kt % self.mk == 0 and self.mk <= kt else kt
        return replace(self, it=it, jt=jt, kt=kt, mk=mk)

    # -- the paper's configurations ----------------------------------------------
    @classmethod
    def paper_scaling(cls) -> "SweepInput":
        """§VI: 5x5x400 per SPE, MK=20, 6 angles — the weak-scaling run."""
        return cls(it=5, jt=5, kt=400, mk=20, mmi=6)

    @classmethod
    def paper_table4(cls) -> "SweepInput":
        """Table IV: 50x50x50 subgrid, MK=10, MMI=6."""
        return cls(it=50, jt=50, kt=50, mk=10, mmi=6)
