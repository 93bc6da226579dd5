"""Cell Messaging Layer path compositions (Fig 6, Fig 7; §V-C).

CML gives every SPE in the cluster an MPI rank.  A message between SPEs
crosses a location-dependent chain of transports:

* same socket — one hop over the EIB (0.272 µs);
* same node, different Cell — SPE→PPE, DaCS to the Opteron side, a
  shared-memory copy between Opteron cores, DaCS back down, PPE→SPE;
* different nodes — the full Fig 6 path: local leg, DaCS up, MPI over
  InfiniBand between Opterons, DaCS down, local leg (8.78 µs zero-byte).

Staging copies at the four relay points reproduce Fig 7's internode
unidirectional rate (~268 MB/s, i.e. half of the published 536 MB/s
two-times-unidirectional figure).

:class:`CellMessagePath` picks the chain for a pair of endpoints and is
itself the fabric SimMPI prices SPE-centric runs with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.dacs import DACS_MEASURED, PCIE_RAW
from repro.comm.eib import CML_EIB_PAIR
from repro.comm.ib import IB_DEFAULT
from repro.comm.transport import PipelinePath, Transport
from repro.units import GB_S, US

__all__ = [
    "LOCAL_LEG",
    "CellMessagePath",
    "INTRANODE_CELL_PATH",
    "INTERNODE_CELL_PATH",
    "INTERNODE_CELL_PATH_BEST",
    "RELAY_COPY_BANDWIDTH",
]

#: The short SPE<->PPE leg at each end of an off-chip CML message
#: (Fig 6's two 0.12 µs segments); bandwidth is the EIB wire rate.
LOCAL_LEG = Transport(
    name="local SPE<->PPE leg",
    latency=0.12 * US,
    bandwidth=CML_EIB_PAIR.bandwidth,
)

#: Effective rate of the staging copy charged at each of the path's four
#: relay points (SPE->PPE buffer hand-off, PPE DaCS->Opteron MPI buffer,
#: and their mirror images at the receiver).  The Cell-side copies ride
#: the EIB and are fast; the Opteron-side memcpys dominate.  Fit so the
#: composed path reproduces Fig 7's ~268 MB/s internode unidirectional
#: rate at 1 MB.
RELAY_COPY_BANDWIDTH = 6.215 * GB_S

#: Shared-memory hop between the two Opteron cores handling an
#: intranode Cell-to-Cell message.
_SHM_LEG = Transport(
    name="Opteron shared-memory leg",
    latency=0.3 * US,
    bandwidth=2.7 * GB_S,
)

#: Cell-to-Cell within one triblade: up over DaCS, across shared memory,
#: down over DaCS.
INTRANODE_CELL_PATH = PipelinePath(
    name="Cell-Opteron-Opteron-Cell (intranode)",
    legs=(LOCAL_LEG, DACS_MEASURED, _SHM_LEG, DACS_MEASURED, LOCAL_LEG),
    relay_copy_bandwidth=0.0,
    bidirectional_factor=0.64,
)

#: The Fig 6 path: Cell-to-Cell between different triblades.
INTERNODE_CELL_PATH = PipelinePath(
    name="Cell-Opteron-Opteron-Cell (internode)",
    legs=(LOCAL_LEG, DACS_MEASURED, IB_DEFAULT, DACS_MEASURED, LOCAL_LEG),
    relay_copy_bandwidth=RELAY_COPY_BANDWIDTH,
    bidirectional_factor=0.70,
)

#: The same path with the raw-PCIe 'best' parameters of §VI-A — the
#: transport behind the paper's 'Cell (best)' Sweep3D projection.
INTERNODE_CELL_PATH_BEST = PipelinePath(
    name="Cell-Opteron-Opteron-Cell (peak PCIe)",
    legs=(LOCAL_LEG, PCIE_RAW, IB_DEFAULT, PCIE_RAW, LOCAL_LEG),
    relay_copy_bandwidth=RELAY_COPY_BANDWIDTH,
    bidirectional_factor=0.70,
)

#: On a stock QS21 blade the two Cell sockets are cache-coherent, so
#: SPE-to-SPE messages across sockets "can proceed entirely over the
#: high-speed Element Interconnect Bus with no PPE involvement" (§V-C)
#: — unlike Roadrunner's QS22s, whose PPEs must relay over PCIe.  The
#: coherent FlexIO hop roughly halves the pair bandwidth and adds a
#: small latency over the on-chip case.
QS21_CROSS_SOCKET = Transport(
    name="CML cross-socket (QS21 coherent EIB)",
    latency=0.60 * US,
    bandwidth=CML_EIB_PAIR.bandwidth / 2,
)

#: Intranode Cell-to-Cell with the raw-PCIe parameters (the single-node
#: limit of the 'best' projection).
INTRANODE_CELL_PATH_BEST = PipelinePath(
    name="Cell-Opteron-Opteron-Cell (intranode, peak PCIe)",
    legs=(LOCAL_LEG, PCIE_RAW, _SHM_LEG, PCIE_RAW, LOCAL_LEG),
    relay_copy_bandwidth=0.0,
    bidirectional_factor=0.64,
)


@dataclass(frozen=True)
class CellMessagePath:
    """Resolve the transport chain between two SPE-centric endpoints.

    An endpoint is ``(node, cell, spe)``; ``cell`` indexes the four
    PowerXCell 8i chips of a triblade.  A
    :class:`~repro.comm.mpi.Location` is such a tuple, so an instance is
    a SimMPI fabric: it charges EIB, PCIe or InfiniBand by placement.
    """

    intra_socket: Transport = CML_EIB_PAIR
    intranode: PipelinePath = INTRANODE_CELL_PATH
    internode: PipelinePath = INTERNODE_CELL_PATH

    def classify(
        self, src: tuple[int, int, int], dst: tuple[int, int, int]
    ) -> str:
        """'self', 'intra-socket', 'intranode', or 'internode'."""
        if src == dst:
            return "self"
        if src[0] == dst[0]:
            return "intra-socket" if src[1] == dst[1] else "intranode"
        return "internode"

    def one_way_time(
        self, src: tuple[int, int, int], dst: tuple[int, int, int], size_bytes: int
    ) -> float:
        """Delivery time of ``size_bytes`` between two SPEs."""
        kind = self.classify(src, dst)
        if kind == "self":
            return 0.0
        if kind == "intra-socket":
            return self.intra_socket.one_way_time(size_bytes)
        if kind == "intranode":
            return self.intranode.one_way_time(size_bytes)
        return self.internode.one_way_time(size_bytes)
