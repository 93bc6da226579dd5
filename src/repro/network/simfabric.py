"""A contention-aware DES fabric for SimMPI.

The analytic fabrics in :mod:`repro.comm` charge each message a cost
curve independent of other traffic.  :class:`ContendedFabric` instead
materializes per-node InfiniBand injection/ejection ports as fair-shared
:class:`~repro.sim.resources.BandwidthLink` pipes on the simulation, so
concurrent messages through the same HCA split its 2 GB/s — the
mechanism behind the paper's observation that Fig 7's curves show "the
worst-performing pair when all Cell-Opteron pairs are in use".

Usage: construct with the :class:`~repro.sim.engine.Simulator` that
will run the communicator, then pass it to
:class:`~repro.comm.mpi.SimMPI` as the fabric.  The latency part stays
analytic: SimMPI prices it as ``one_way_time(src, dst, 0)``, software
overhead plus 220 ns per crossbar hop.  Only the bandwidth phase
contends.

A message's bytes cross its links concurrently.  The fabric starts one
transfer per link and hands every link the same countdown record
(:class:`_Flow`), which fires the message's ``done`` event when the last
link clears: no helper process, condition event or per-link event is
created.  With ``model_uplinks`` the links include the two CU uplinks a
route crosses, taken in closed form from
:func:`~repro.network.routing.route_uplinks`.
"""

from __future__ import annotations

from math import inf

from repro.comm.mpi import DeliveryError, Location
from repro.network.latency import IBLatencyModel
from repro.network.routing import route_uplinks
from repro.network.topology import RoadrunnerTopology
from repro.sim.engine import Event, Simulator
from repro.sim.resources import BandwidthLink

__all__ = ["ContendedFabric"]


class _Flow:
    """One message's countdown over the links it crosses, one per
    message.  Each link calls :meth:`succeed` when the bytes have
    cleared it; the last call fires the message's ``done`` event.  It
    refers to no fabric, so a finished flow is freed by reference
    counting."""

    __slots__ = ("done", "pending")

    def __init__(self, done: Event, pending: int):
        self.done = done
        self.pending = pending

    def succeed(self, now: float) -> None:
        self.pending -= 1
        if not self.pending:
            self.done.succeed(now)


class ContendedFabric:
    """Per-node NIC contention over the Roadrunner fabric.

    Implements both the analytic fabric protocol (``one_way_time``,
    whose zero-byte value SimMPI takes as the latency) and an extended
    ``transfer`` hook that SimMPI-compatible callers can use to route a
    message's bandwidth phase through the shared tx/rx links.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: RoadrunnerTopology | None = None,
        latency_model: IBLatencyModel | None = None,
        model_uplinks: bool = False,
        spread_routing: bool = False,
        health=None,
        obs=None,
    ):
        self.sim = sim
        #: optional :class:`repro.obs.recorder.ObsRecorder`, handed to
        #: every link: each records a ``link`` span per transfer it
        #: carries (t0 = transfer start, t1 = that link's bytes cleared)
        #: plus ``link.bytes`` counters — the profiler's per-link occupancy
        self.obs = obs
        self.topology = topology or RoadrunnerTopology(cu_count=1)
        self.latency = latency_model or IBLatencyModel()
        #: also contend for the CU uplinks a route crosses (the
        #: 2:1-taper resource of §II-C); off by default for speed
        self.model_uplinks = model_uplinks
        #: optional failed-node ledger (duck-typed ``node_ok``, e.g.
        #: :class:`~repro.resilience.health.FabricHealth`): a transfer
        #: touching a failed endpoint fails with
        #: :class:`~repro.comm.mpi.DeliveryError`
        self.health = health
        #: use destination-hashed routing when picking uplinks
        self.spread_routing = spread_routing
        self._tx: dict[int, BandwidthLink] = {}
        self._rx: dict[int, BandwidthLink] = {}
        self._uplinks: dict[tuple, BandwidthLink] = {}

    def _new_link(self, name: str) -> BandwidthLink:
        return BandwidthLink(self.sim, self.latency.bandwidth, name=name, obs=self.obs)

    def _nic(self, table: dict[int, BandwidthLink], node: int) -> BandwidthLink:
        link = table.get(node)
        if link is None:
            kind = "tx" if table is self._tx else "rx"
            link = table[node] = self._new_link(f"hca-{kind}-{node}")
        return link

    # -- analytic protocol (used by SimMPI for latency bookkeeping) --------
    def one_way_time(self, src: Location, dst: Location, size: int) -> float:
        """Uncontended one-way time (the floor the DES enforces)."""
        if src.node == dst.node:
            return 0.0
        return self.latency.message_latency(self.topology, src.node, dst.node, size)

    # -- the contended path --------------------------------------------------
    def transfer(self, src: Location, dst: Location, size: int) -> Event:
        """Move a message's payload bytes through the shared NICs.

        Returns an event firing when the bytes have cleared both the
        source's injection port and the destination's ejection port (and
        the CU uplinks, with ``model_uplinks``).  The crossings proceed
        concurrently (cut-through: bytes stream out of one port into the
        next), so an uncontended message pays one bandwidth phase and
        the most congested link sets the pace.  Zero-size messages and
        intranode messages complete immediately.
        """
        if not 0 <= size < inf:
            raise ValueError(f"message size must be finite and >= 0, got {size!r}")
        done = Event(self.sim)
        health = self.health
        if health is not None and not (
            health.node_ok(src.node) and health.node_ok(dst.node)
        ):
            down = src.node if not health.node_ok(src.node) else dst.node
            done.fail(DeliveryError(f"node {down} is down"))
            return done
        if size == 0 or src.node == dst.node:
            done.succeed(self.sim.now)
            return done
        links = [self._nic(self._tx, src.node), self._nic(self._rx, dst.node)]
        if self.model_uplinks:
            links.extend(self._route_uplinks(src.node, dst.node))
        flow = _Flow(done, len(links))
        for link in links:
            link.transfer(size, flow)
        return done

    def _route_uplinks(self, src_node: int, dst_node: int) -> list[BandwidthLink]:
        """Shared CU-uplink links along the route (if it leaves a CU).

        An uplink is identified by the (lower crossbar, inter-CU
        crossbar) edge the deterministic route takes; 180 nodes share
        their CU's 96 uplinks, so these links are where the paper's
        2:1 taper bites under load.
        """
        uplinks = self._uplinks
        out = []
        for edge in route_uplinks(
            self.topology, src_node, dst_node, spread=self.spread_routing
        ):
            link = uplinks.get(edge)
            if link is None:
                link = uplinks[edge] = self._new_link(f"uplink-{edge}")
            out.append(link)
        return out

    # -- instrumentation -------------------------------------------------------
    def nic_bytes(self, node: int) -> tuple[float, float]:
        """(injected, ejected) bytes through a node's HCA so far."""
        injected = self._tx[node].bytes_transferred if node in self._tx else 0.0
        ejected = self._rx[node].bytes_transferred if node in self._rx else 0.0
        return injected, ejected
