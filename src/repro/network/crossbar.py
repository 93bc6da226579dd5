"""Crossbar identifiers and port accounting.

Every switching element in the fabric is a 24-port InfiniBand crossbar.
:class:`XbarId` names one crossbar by its role:

* ``("L", cu, i)`` — lower-level crossbar *i* (0-23) of CU *cu*'s switch
* ``("U", cu, j)`` — upper-level crossbar *j* (0-11) of CU *cu*'s switch
* ``("F", s, j)``  — first-level crossbar *j* of inter-CU switch *s*
* ``("M", s, j)``  — middle-level crossbar *j* of inter-CU switch *s*
* ``("T", s, j)``  — third-level crossbar *j* of inter-CU switch *s*

The wired fabric is a plain :data:`Graph`: each vertex (a crossbar, or
a ``("node" | "io", cu, index)`` endpoint) maps to its neighbours in
wiring order, one per port in use.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["CROSSBAR_PORTS", "LEVELS", "XbarId", "Graph", "add_link"]

#: Every crossbar in the Voltaire ISR 9288 has 24 ports (paper §II-B).
CROSSBAR_PORTS = 24

#: Valid crossbar levels; L/U live in CU switches, F/M/T in inter-CU ones.
LEVELS = frozenset({"L", "U", "F", "M", "T"})

#: Adjacency lists: vertex -> neighbours in the order they were wired.
Graph = dict[tuple, list[tuple]]


def add_link(graph: Graph, u: tuple, v: tuple) -> None:
    """Wire ``u — v``, adding either vertex that is not yet present."""
    graph.setdefault(u, []).append(v)
    graph.setdefault(v, []).append(u)


class XbarId(NamedTuple):
    """Identity of one 24-port crossbar in the fabric."""

    level: str
    owner: int  # CU index for L/U, inter-CU switch index for F/M/T
    index: int

    def validate(self, cu_count: int, switch_count: int) -> "XbarId":
        """Range-check the identifier against a fabric's dimensions."""
        if self.level not in LEVELS:
            raise ValueError(f"unknown crossbar level {self.level!r}")
        if self.level in ("L", "U"):
            if not 0 <= self.owner < cu_count:
                raise ValueError(f"CU index {self.owner} out of range")
            limit = 24 if self.level == "L" else 12
        else:
            if not 0 <= self.owner < switch_count:
                raise ValueError(f"switch index {self.owner} out of range")
            limit = 12
        if not 0 <= self.index < limit:
            raise ValueError(
                f"crossbar index {self.index} out of range for level {self.level}"
            )
        return self
