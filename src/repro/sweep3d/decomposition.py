"""2-D (KBA) domain decomposition of the Sweep3D grid.

The global ``(I·n) x (J·m) x K`` grid maps onto a logical ``n x m``
process array; every process owns a full pencil in K (paper §V-A).  For
a given octant the wavefront enters at one corner of the process array;
each process receives its upstream I- and J-surfaces, computes a block,
and forwards downstream.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.sweep3d.quadrature import OCTANTS

__all__ = ["Decomposition2D"]


@dataclass(frozen=True)
class Decomposition2D:
    """A logical ``npe_i x npe_j`` process array."""

    npe_i: int
    npe_j: int

    def __post_init__(self):
        if self.npe_i < 1 or self.npe_j < 1:
            raise ValueError("process array dimensions must be >= 1")

    @property
    def size(self) -> int:
        return self.npe_i * self.npe_j

    def coords(self, rank: int) -> tuple[int, int]:
        """Rank -> (pi, pj), row-major in i."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")
        return divmod(rank, self.npe_j)

    def rank_of(self, pi: int, pj: int) -> int:
        """(pi, pj) -> rank."""
        if not (0 <= pi < self.npe_i and 0 <= pj < self.npe_j):
            raise ValueError(f"coords ({pi}, {pj}) out of range")
        return pi * self.npe_j + pj

    def upstream_i(self, rank: int, sx: int) -> int | None:
        """The rank this one receives I-surfaces from for sign ``sx``
        (or ``None`` at the inflow boundary)."""
        pi, pj = self.coords(rank)
        up = pi - sx
        return self.rank_of(up, pj) if 0 <= up < self.npe_i else None

    def downstream_i(self, rank: int, sx: int) -> int | None:
        """The rank this one sends I-surfaces to (or ``None``)."""
        pi, pj = self.coords(rank)
        down = pi + sx
        return self.rank_of(down, pj) if 0 <= down < self.npe_i else None

    def upstream_j(self, rank: int, sy: int) -> int | None:
        """Upstream J-neighbour for sign ``sy`` (or ``None``)."""
        pi, pj = self.coords(rank)
        up = pj - sy
        return self.rank_of(pi, up) if 0 <= up < self.npe_j else None

    def downstream_j(self, rank: int, sy: int) -> int | None:
        """Downstream J-neighbour for sign ``sy`` (or ``None``)."""
        pi, pj = self.coords(rank)
        down = pj + sy
        return self.rank_of(pi, down) if 0 <= down < self.npe_j else None

    def neighbours(self, rank: int) -> Iterator[tuple[int | None, ...]]:
        """Yield ``(octant id, up_i, dn_i, up_j, dn_j)`` per octant of
        :data:`~repro.sweep3d.quadrature.OCTANTS`, in that order: the
        four neighbour helpers' answers from one ``divmod``.  Lazily: a
        sweep holds this across its octants, and 3,060 lists of eight
        tuples would be megabytes of live memory."""
        pi, pj = self.coords(rank)
        nj = self.npe_j
        i_lo = rank - nj if pi > 0 else None
        i_hi = rank + nj if pi < self.npe_i - 1 else None
        j_lo = rank - 1 if pj > 0 else None
        j_hi = rank + 1 if pj < nj - 1 else None
        for o in OCTANTS:
            yield (o.id, *((i_lo, i_hi) if o.sx > 0 else (i_hi, i_lo)),
                   *((j_lo, j_hi) if o.sy > 0 else (j_hi, j_lo)))

    @property
    def pipeline_depth(self) -> int:
        """Wavefront fill distance across the array: npe_i + npe_j - 2."""
        return self.npe_i + self.npe_j - 2

    @staticmethod
    def near_square(nranks: int) -> "Decomposition2D":
        """The most square factorization of ``nranks`` (npe_i >= npe_j)."""
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        best = (nranks, 1)
        for pj in range(1, int(nranks**0.5) + 1):
            if nranks % pj == 0:
                best = (nranks // pj, pj)
        return Decomposition2D(npe_i=best[0], npe_j=best[1])
