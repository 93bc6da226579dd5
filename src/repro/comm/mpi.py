"""SimMPI: a simulated MPI subset running on the DES engine.

Ranks are generator processes.  Each rank owns a mailbox; ``send``
charges the sender its serialization time (LogGP's ``o + s·G``) and
delivers the message — payload included, by reference — into the
destination mailbox after the path's one-way time.  ``recv`` matches on
``(source, tag)`` with wildcards in arrival order.  Collectives
(barrier, broadcast, reduce, allreduce) are binomial trees built from
the point-to-point layer, mirroring how CML implements them on the SPEs.

A *fabric* is one method, ``one_way_time(src, dst, size)``: the time
``size`` bytes take between two :class:`Location` endpoints, whose
zero-byte value is the wire latency.  The communicator asks it once per
``(src rank, dest rank, size)`` and keeps the answer in its cost table,
the only memo on the price path.  :class:`UniformFabric` applies one
transport everywhere; :class:`~repro.comm.cml.CellMessagePath` charges
EIB, PCIe or InfiniBand by placement, and
:class:`~repro.sweep3d.placement.HopAwareFabric` and
:class:`~repro.network.simfabric.ContendedFabric` add crossbar hops.

On an unhealthy machine a run aborts instead of hanging: ``timeout=``
on ``recv`` and the collectives bounds every receive, so a dead partner
raises :class:`DeliveryError` instead of stalling its subtree forever,
and a :class:`~repro.resilience.policy.DeliveryPolicy` retries lost
sends until its budget runs out.  Both default off; the default path is
bit-identical to the historical perfect-fabric communicator.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, NamedTuple

from repro.comm.transport import PipelinePath, Transport
from repro.sim.engine import AnyOf, Event, Simulator

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "DeliveryError",
    "Location",
    "Message",
    "UniformFabric",
    "SimMPI",
    "Rank",
]

ANY_SOURCE = -1
ANY_TAG = -1


class DeliveryError(Exception):
    """A message could not be delivered.

    Raised by :meth:`Rank.send` once a :class:`~repro.resilience.policy.
    DeliveryPolicy` exhausts its retries, and used by fabrics (e.g.
    :class:`~repro.network.simfabric.ContendedFabric` with a health
    ledger) to fail a transfer whose endpoint is down.
    """


def _check_timeout(timeout: float | None) -> None:
    """A receive bound is ``None`` or finite and > 0, checked before
    anything is posted: a NaN bound would strand a posted waiter."""
    if timeout is not None and not 0 < timeout < inf:
        raise ValueError(
            f"recv timeout must be None or finite and positive, got {timeout!r}"
        )


class Location(NamedTuple):
    """Where a rank physically lives in the machine."""

    node: int
    cell: int = 0
    spe: int = 0


class Message:
    """An in-flight or delivered message.

    Slotted: a full-machine sweep keeps hundreds of thousands of these
    alive per iteration, and the per-instance ``__dict__`` of a plain
    class would dominate their footprint.  A hand-written ``__init__``
    rather than a frozen dataclass — the send hot path constructs one
    per message, and the frozen form pays ``object.__setattr__`` per
    field.  Treat instances as immutable.
    """

    __slots__ = (
        "source", "dest", "tag", "size", "payload", "sent_at",
        "delivered_at",
    )

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        size: int,
        payload: Any = None,
        sent_at: float = 0.0,
        delivered_at: float = 0.0,
    ):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.size = size
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = delivered_at

    def __repr__(self) -> str:
        return (
            f"Message(source={self.source}, dest={self.dest}, "
            f"tag={self.tag}, size={self.size}, payload={self.payload!r}, "
            f"sent_at={self.sent_at}, delivered_at={self.delivered_at})"
        )


class UniformFabric:
    """One transport between every distinct pair; zero cost to self."""

    def __init__(self, transport: Transport | PipelinePath):
        self.transport = transport

    def one_way_time(self, src: Location, dst: Location, size: int) -> float:
        if src == dst:
            return 0.0
        return self.transport.one_way_time(size)


class _Mailbox:
    """One rank's receive queue: delivered-but-unclaimed messages and
    posted-but-unmatched receives.  Slotted — a communicator
    preallocates one per rank, and at 3,060 ranks the dataclass
    ``__dict__`` these used to carry is measurable memory."""

    __slots__ = ("pending", "waiters")

    def __init__(self):
        self.pending: list[Message] = []
        self.waiters: list[tuple[int, int, Event]] = []

    # The source/tag match is spelled out in both scans below rather
    # than called: one call per scanned entry is measurable at 96k
    # deliveries per iteration.
    def deliver(self, msg: Message) -> None:
        waiters = self.waiters
        if waiters:
            msrc, mtag = msg.source, msg.tag
            for i, (src, tag, evt) in enumerate(waiters):
                if (src == ANY_SOURCE or msrc == src) and (
                    tag == ANY_TAG or mtag == tag
                ):
                    del waiters[i]
                    evt.succeed(msg)
                    return
        self.pending.append(msg)

    def take(self, sim: Simulator, source: int, tag: int) -> Event:
        evt = Event(sim)
        pending = self.pending
        if pending:
            for i, msg in enumerate(pending):
                if (source == ANY_SOURCE or msg.source == source) and (
                    tag == ANY_TAG or msg.tag == tag
                ):
                    del pending[i]
                    evt.succeed(msg)
                    return evt
        self.waiters.append((source, tag, evt))
        return evt

    def cancel(self, evt: Event) -> None:
        """Deregister a waiter created by :meth:`take`.  A receive that
        gives up (deadline expired) must remove its stale event, or the
        next matching message would be swallowed by it and lost."""
        for i, (_src, _tag, waiting) in enumerate(self.waiters):
            if waiting is evt:
                del self.waiters[i]
                return


class _Cohort:
    """Slotted batch-delivery record for one arrival instant.

    All messages whose delivery lands at the same simulated time share
    one timeout and one callback: the first send targeting an instant
    schedules the timeout and registers a new cohort under that time in
    ``comm._cohorts``; later sends landing at the bit-identical instant
    just append their message.  Firing drains the whole cohort in one
    pass, in append order — which is exactly the (time, seq) dispatch
    order the per-message timeouts would have had, since sends enqueue
    messages in seq order — so the event loop dispatches one event per
    *instant* instead of one per message.  Once fired, nothing refers
    to the record, so reference counting frees it and no cycle through
    the communicator outlives the run.
    """

    __slots__ = ("comm", "time", "msgs")

    def __init__(self, comm: "SimMPI", time: float):
        self.comm = comm
        self.time = time
        self.msgs: list[Message] = []

    def __call__(self, _evt: Event) -> None:
        comm, msgs = self.comm, self.msgs
        # Unregister *before* delivering: a receiver woken at this same
        # instant may send again with zero latency, and that message
        # belongs to a fresh cohort scheduled behind this dispatch.
        del comm._cohorts[self.time]
        mailboxes = comm._mailboxes
        for msg in msgs:
            mailboxes[msg.dest].deliver(msg)
        n = len(msgs)
        if n > 1:
            obs = comm.obs
            if obs is not None:
                obs.count("mpi.batched_deliveries", n - 1)


class SimMPI:
    """A simulated communicator over ``len(locations)`` ranks.

    Sends are priced from one cost table, keyed ``(src rank, dest rank,
    size)`` and filled and checked on first use by :meth:`_price`.
    """

    #: tag space reserved for collectives
    _COLL_TAG = 1 << 20

    def __init__(
        self,
        sim: Simulator,
        fabric,
        locations: list[Location],
        delivery=None,
        obs=None,
    ):
        if not locations:
            raise ValueError("communicator needs at least one rank")
        self.sim = sim
        self.fabric = fabric
        self.locations = list(locations)
        #: optional DeliveryPolicy (duck-typed: delivered()/retry_delay()/
        #: max_retries); None keeps the historical perfect-fabric path
        self.delivery = delivery
        #: optional :class:`repro.obs.recorder.ObsRecorder` receiving
        #: send/recv/collective spans, retry events, and
        #: message/byte/retry counters; None (the default) keeps
        #: recording branches off the hot path
        self.obs = obs
        self._mailboxes = [_Mailbox() for _ in locations]
        #: in-flight batch deliveries keyed by arrival instant (see
        #: :class:`_Cohort`)
        self._cohorts: dict[float, _Cohort] = {}
        #: the cost table: (src rank, dest rank, size) -> (latency,
        #: serialize), filled by :meth:`_price` on first use
        self._costs: dict[tuple[int, int, int], tuple[float, float | None]] = {}
        #: one shared tuple per distinct cost (see :meth:`_price`)
        self._cost_tuples: dict[tuple[float, float | None], tuple[float, float | None]] = {}
        self._contended = hasattr(fabric, "transfer")
        #: statistics: (messages, bytes) sent per rank
        self.sent_counts = [0] * len(locations)
        self.sent_bytes = [0] * len(locations)
        #: retransmissions per rank (stays all-zero without a policy)
        self.retry_counts = [0] * len(locations)
        # Per-rank collective-invocation counters.  MPI requires every
        # rank to call collectives in the same order, so these counters
        # agree across ranks and give each invocation a fresh tag block,
        # preventing messages of consecutive collectives from matching
        # each other.
        self._coll_seq = [0] * len(locations)

    @property
    def size(self) -> int:
        return len(self.locations)

    def rank(self, index: int) -> "Rank":
        """Handle used by rank ``index``'s process."""
        if not 0 <= index < self.size:
            raise ValueError(f"rank {index} out of range 0..{self.size - 1}")
        return Rank(self, index)

    def _price(self, index: int, dest: int, size: int) -> tuple[float, float | None]:
        """Check a send's ``dest`` and ``size`` and enter its cost,
        ``(latency, serialize)``, in the table: the latency is the
        fabric's zero-byte ``one_way_time`` and serialize the rest of
        the sized one; serialize is ``None`` on a contended fabric,
        whose links time the bytes.  Only checked keys enter, so a bad
        argument raises on every call."""
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} out of range")
        if not 0 <= size < inf:
            raise ValueError(f"message size must be finite and >= 0, got {size!r}")
        fabric, src, dst = self.fabric, self.locations[index], self.locations[dest]
        latency = fabric.one_way_time(src, dst, 0)
        serialize = None if self._contended else max(
            0.0, fabric.one_way_time(src, dst, size) - latency)
        cost = (latency, serialize)
        # A sweep prices thousands of keys at a handful of distinct costs.
        cost = self._costs[index, dest, size] = self._cost_tuples.setdefault(cost, cost)
        return cost


class Rank:
    """Per-rank MPI API.  All methods are generators to be ``yield
    from``-ed inside a simulation process (or events to ``yield``)."""

    __slots__ = ("comm", "index", "sim")

    def __init__(self, comm: SimMPI, index: int):
        self.comm = comm
        self.index = index
        self.sim = comm.sim

    @property
    def location(self) -> Location:
        return self.comm.locations[self.index]

    @property
    def size(self) -> int:
        return self.comm.size

    # -- point to point ------------------------------------------------------
    def send(self, dest: int, size: int, tag: int = 0, payload: Any = None):
        """Blocking send (generator): the sender is busy for its
        serialization time; delivery happens one wire latency later.

        The cost comes from the communicator's table
        (:meth:`SimMPI._price`); with no policy and an analytic fabric
        the send then runs straight through, with no attempt loop.

        Under a :class:`~repro.resilience.policy.DeliveryPolicy` each
        transmission is an attempt: a lost one (dropped, or refused by
        a contended fabric because an endpoint's node is down) records
        an ``mpi.retry`` event, waits out the policy's backoff and goes
        again; once the retries are spent the send closes its
        ``mpi.send`` span with ``delivered=False`` and raises
        :class:`DeliveryError`.  Without a policy there is one attempt
        and a fabric's refusal propagates as raised.  A *perfect* policy
        (no drops, no failed endpoints) gives the exact event timeline
        of no policy — same spans less their ``attempts`` attribute, no
        RNG draws — which ``tests/test_resilience.py`` pins.
        """
        comm, sim, index = self.comm, self.sim, self.index
        cost = comm._costs.get((index, dest, size))
        if cost is None:
            cost = comm._price(index, dest, size)
        latency, serialize = cost
        sent_at = sim._now
        comm.sent_counts[index] += 1
        comm.sent_bytes[index] += size
        policy = comm.delivery
        attempt = 0
        if policy is None and serialize is not None:
            if serialize > 0:
                yield sim.timeout(serialize)
        else:
            src_loc = comm.locations[index]
            dst_loc = comm.locations[dest]
            while True:
                try:
                    if serialize is None:
                        # Contended fabric: the bandwidth phase runs
                        # through shared link resources; the sender is
                        # occupied until its payload clears them
                        # (conservative store-and-forward semantics).
                        yield comm.fabric.transfer(src_loc, dst_loc, size)
                    elif serialize > 0:
                        yield sim.timeout(serialize)
                except DeliveryError:
                    # The fabric refused: an endpoint's node is down.
                    if policy is None:
                        raise
                else:
                    if policy is None or policy.delivered(src_loc, dst_loc, size):
                        break
                obs = comm.obs
                if attempt >= policy.max_retries:
                    if obs is not None:
                        obs.span("mpi.send", index, sent_at, sim.now,
                                 dest=dest, size=size, tag=tag,
                                 attempts=attempt + 1, delivered=False)
                    raise DeliveryError(
                        f"rank {index} -> rank {dest}: {size}-byte message "
                        f"undeliverable after {attempt + 1} attempts"
                    )
                comm.retry_counts[index] += 1
                if obs is not None:
                    obs.event("mpi.retry", index, sim.now, dest=dest,
                              size=size, tag=tag, attempt=attempt + 1)
                    obs.count("mpi.retries", track=index)
                yield sim.timeout(policy.retry_delay(attempt))
                attempt += 1
        when = sim._now + latency
        msg = Message(index, dest, tag, size, payload, sent_at, when)
        cohorts = comm._cohorts
        rec = cohorts.get(when)
        if rec is None:
            rec = cohorts[when] = _Cohort(comm, when)
            sim.timeout(latency).callbacks.append(rec)
        rec.msgs.append(msg)
        obs = comm.obs
        if obs is not None:
            if policy is None:
                obs.span("mpi.send", index, sent_at, sim.now,
                         dest=dest, size=size, tag=tag)
            else:
                obs.span("mpi.send", index, sent_at, sim.now,
                         dest=dest, size=size, tag=tag, attempts=attempt + 1)
            obs.count("mpi.messages", track=index)
            obs.count("mpi.bytes", size, track=index)
        return msg

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ):
        """Blocking receive (generator); returns the :class:`Message`.

        With ``timeout`` the wait is bounded: if no matching message
        arrives within ``timeout`` simulated seconds the receive gives
        up and raises :class:`DeliveryError` — the detection primitive
        of the collectives' abort contract.  ``timeout=None`` (the
        default) is the historical unbounded receive.
        """
        _check_timeout(timeout)
        obs = self.comm.obs
        t0 = self.sim.now if obs is not None else 0.0
        if timeout is not None:
            msg = yield from self._recv_deadline(source, tag, timeout)
        else:
            msg = yield self.irecv(source=source, tag=tag)
        if obs is not None:
            obs.span("mpi.recv", self.index, t0, self.sim.now,
                     source=msg.source, tag=tag, size=msg.size)
        return msg

    def _recv_deadline(self, source: int, tag: int, timeout: float):
        """Receive bounded by a deadline (generator): race the mailbox
        event against a timer; on expiry deregister the waiter (so a
        later matching message is not silently consumed by the stale
        event) and raise :class:`DeliveryError`."""
        sim = self.sim
        evt = self.irecv(source=source, tag=tag)
        if evt._triggered:  # already matched against pending messages
            msg = yield evt
            return msg
        timer = sim.timeout(timeout)
        fired = yield AnyOf(sim, (evt, timer))
        if evt in fired:
            return fired[evt]
        if evt._triggered:
            # The message landed in the very instant the deadline
            # expired, after the timer in heap order: take it rather
            # than lose a delivered message.
            return evt._value
        self.comm._mailboxes[self.index].cancel(evt)
        obs = self.comm.obs
        if obs is not None:
            obs.count("mpi.recv_timeouts", track=self.index)
        who = "any source" if source == ANY_SOURCE else f"rank {source}"
        raise DeliveryError(
            f"rank {self.index}: no message from {who} (tag {tag}) "
            f"within {timeout:g} s"
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Non-blocking receive: an event firing with the message."""
        return self.comm._mailboxes[self.index].take(self.sim, source, tag)

    # -- collectives (binomial trees over point-to-point) ---------------------
    #
    # The four core collectives take ``timeout``, which bounds every
    # receive in the tree: a dead partner surfaces as
    # :class:`DeliveryError` out of the collective (the abort contract)
    # instead of parking its whole subtree forever.  The default keeps
    # the historical, perfect-fabric behavior.
    def _next_coll_tag(self) -> int:
        """Fresh 64-tag block for one collective invocation, numbered by
        this rank's collective count (MPI ordering makes the counts
        agree across ranks)."""
        seqs = self.comm._coll_seq
        seq = seqs[self.index]
        seqs[self.index] = seq + 1
        return SimMPI._COLL_TAG + seq * 64

    def _collective_span(self, op: str, gen):
        """Delegate to a collective's body (generator), recording an
        ``mpi.collective`` span over it when a recorder is attached.
        The span closes even when the body aborts (DeliveryError), so
        failed collectives still appear in the timeline."""
        obs = self.comm.obs
        if obs is None:
            result = yield from gen
            return result
        t0 = self.sim.now
        try:
            result = yield from gen
        finally:
            obs.span("mpi.collective", self.index, t0, self.sim.now, op=op)
        return result

    def barrier(self, timeout: float | None = None):
        """Dissemination barrier (generator)."""
        _check_timeout(timeout)
        return (
            yield from self._collective_span(
                "barrier", self._barrier_impl(timeout=timeout)
            )
        )

    def _barrier_impl(self, timeout: float | None = None):
        tag = self._next_coll_tag()
        n = self.comm.size
        if n == 1:
            return
        round_no = 0
        distance = 1
        while distance < n:
            dest = (self.index + distance) % n
            src = (self.index - distance) % n
            yield from self.send(dest, 0, tag=tag + round_no)
            yield from self.recv(source=src, tag=tag + round_no, timeout=timeout)
            distance *= 2
            round_no += 1

    def bcast(
        self,
        value: Any,
        root: int = 0,
        size: int = 8,
        tag: int | None = None,
        timeout: float | None = None,
    ):
        """Binomial-tree broadcast (generator); returns the value."""
        _check_timeout(timeout)
        return (
            yield from self._collective_span(
                "bcast",
                self._bcast_impl(
                    value, root=root, size=size, tag=tag, timeout=timeout,
                ),
            )
        )

    def _bcast_impl(
        self,
        value: Any,
        root: int = 0,
        size: int = 8,
        tag: int | None = None,
        timeout: float | None = None,
    ):
        tag = tag if tag is not None else self._next_coll_tag()
        n = self.comm.size
        if n == 1:
            return value
        vrank = (self.index - root) % n
        mask = 1
        while mask < n:
            if vrank & mask:
                src = ((vrank ^ mask) + root) % n
                msg = yield from self.recv(source=src, tag=tag, timeout=timeout)
                value = msg.payload
                break
            mask <<= 1
        # mask is now the receiver's lowest set bit (or >= n at the root);
        # fan out to children below that bit.
        mask >>= 1
        while mask > 0:
            if vrank + mask < n:
                dest = (vrank + mask + root) % n
                yield from self.send(dest, size, tag=tag, payload=value)
            mask >>= 1
        return value

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        root: int = 0,
        size: int = 8,
        tag: int | None = None,
        timeout: float | None = None,
    ):
        """Binomial-tree reduction (generator); root returns the result,
        other ranks return ``None``."""
        _check_timeout(timeout)
        return (
            yield from self._collective_span(
                "reduce",
                self._reduce_impl(
                    value, op, root=root, size=size, tag=tag, timeout=timeout,
                ),
            )
        )

    def _reduce_impl(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        root: int = 0,
        size: int = 8,
        tag: int | None = None,
        timeout: float | None = None,
    ):
        tag = tag if tag is not None else self._next_coll_tag()
        n = self.comm.size
        vrank = (self.index - root) % n
        acc = value
        mask = 1
        while mask < n:
            if vrank & mask:
                dest = ((vrank ^ mask) + root) % n
                yield from self.send(dest, size, tag=tag, payload=acc)
                return None
            partner = vrank | mask
            if partner < n:
                msg = yield from self.recv(
                    source=(partner + root) % n, tag=tag, timeout=timeout
                )
                acc = op(acc, msg.payload)
            mask <<= 1
        return acc

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        size: int = 8,
        timeout: float | None = None,
    ):
        """Reduce-to-root then broadcast (generator); all ranks return
        the reduced value."""
        _check_timeout(timeout)
        return (
            yield from self._collective_span(
                "allreduce",
                self._allreduce_impl(value, op, size=size, timeout=timeout),
            )
        )

    def _allreduce_impl(
        self,
        value: Any,
        op: Callable[[Any, Any], Any],
        size: int = 8,
        timeout: float | None = None,
    ):
        # The inner phases delegate to the *impl* bodies so a user-level
        # allreduce records exactly one collective span.
        reduced = yield from self._reduce_impl(value, op, root=0, size=size,
                                               timeout=timeout)
        result = yield from self._bcast_impl(reduced, root=0, size=size,
                                             timeout=timeout)
        return result

    def gather(self, value: Any, root: int = 0, size: int = 8):
        """Gather every rank's value at ``root`` (generator); root gets
        the list ordered by rank, others get ``None``."""
        return (
            yield from self._collective_span(
                "gather", self._gather_impl(value, root=root, size=size)
            )
        )

    def _gather_impl(self, value: Any, root: int = 0, size: int = 8):
        tag = self._next_coll_tag()
        n = self.comm.size
        if self.index == root:
            values: list[Any] = [None] * n
            values[self.index] = value
            for _ in range(n - 1):
                msg = yield from self.recv(source=ANY_SOURCE, tag=tag)
                values[msg.source] = msg.payload
            return values
        yield from self.send(root, size, tag=tag, payload=value)
        return None

    def scatter(self, values: list[Any] | None, root: int = 0, size: int = 8):
        """Scatter ``values`` (length = communicator size, significant
        at root only); every rank returns its element."""
        return (
            yield from self._collective_span(
                "scatter", self._scatter_impl(values, root=root, size=size)
            )
        )

    def _scatter_impl(self, values: list[Any] | None, root: int = 0, size: int = 8):
        tag = self._next_coll_tag()
        n = self.comm.size
        if self.index == root:
            if values is None or len(values) != n:
                raise ValueError("root must supply one value per rank")
            for dest in range(n):
                if dest != root:
                    yield from self.send(dest, size, tag=tag, payload=values[dest])
            return values[root]
        msg = yield from self.recv(source=root, tag=tag)
        return msg.payload

    def allgather(self, value: Any, size: int = 8):
        """Bruck-style allgather (generator): every rank returns the
        list of all ranks' values, ordered by rank."""
        return (
            yield from self._collective_span(
                "allgather", self._allgather_impl(value, size=size)
            )
        )

    def _allgather_impl(self, value: Any, size: int = 8):
        tag = self._next_coll_tag()
        n = self.comm.size
        values: dict[int, Any] = {self.index: value}
        distance = 1
        round_no = 0
        while distance < n:
            dest = (self.index + distance) % n
            src = (self.index - distance) % n
            chunk = dict(values)
            yield from self.send(
                dest, size * len(chunk), tag=tag + round_no, payload=chunk
            )
            msg = yield from self.recv(source=src, tag=tag + round_no)
            values.update(msg.payload)
            distance *= 2
            round_no += 1
        return [values[r] for r in range(n)]

    def alltoall(self, values: list[Any], size: int = 8):
        """Personalized all-to-all (generator): rank i's ``values[j]``
        lands at rank j; returns the list received, ordered by source."""
        return (
            yield from self._collective_span(
                "alltoall", self._alltoall_impl(values, size=size)
            )
        )

    def _alltoall_impl(self, values: list[Any], size: int = 8):
        tag = self._next_coll_tag()
        n = self.comm.size
        if len(values) != n:
            raise ValueError("alltoall needs one value per rank")
        received: list[Any] = [None] * n
        received[self.index] = values[self.index]
        # Ring exchange: round k sends to (i+k) and receives from (i-k);
        # one tag suffices since each round's source is distinct.
        for k in range(1, n):
            dest = (self.index + k) % n
            src = (self.index - k) % n
            yield from self.send(dest, size, tag=tag, payload=values[dest])
            msg = yield from self.recv(source=src, tag=tag)
            received[src] = msg.payload
        return received
