"""Live membership and shrink-and-continue collectives.

A dead rank parks every binomial collective in :mod:`repro.comm.mpi`
forever: the tree is wired over the *full* communicator, so one missing
partner starves its whole subtree.  ULFM-style recovery rebuilds the
tree over the survivors instead.  This module provides that protocol
for the simulated MPI:

* :class:`Membership` — the communicator's view of who is alive, read
  from the shared :class:`~repro.resilience.health.FabricHealth` ledger
  (a rank is live iff its node is up);
* :func:`shrink_barrier` / :func:`shrink_bcast` / :func:`shrink_reduce`
  / :func:`shrink_allreduce` — collectives that complete over the live
  membership, reached via ``rank.allreduce(..., shrink=True,
  timeout=...)`` after ``comm.attach_health(health)``.

The shrink protocol
-------------------
Every invocation shares one :class:`_ShrinkState` cell on the
communicator, keyed by the collective sequence number (MPI ordering
makes the numbers agree across ranks).  Each *attempt* snapshots the
live membership once — lazily, by the first rank to enter it — numbers
the survivors densely, and runs an ordinary binomial reduce-then-
broadcast over that group with per-attempt tags, every receive bounded
by ``timeout``.  On a :class:`~repro.comm.mpi.DeliveryError` a rank

1. returns the committed result if some attempt's root already wrote
   it into the shared cell (the **commit point**: after the reduce
   completes, before the broadcast starts), charging one modeled round
   trip to re-fetch it;
2. otherwise advances the shared attempt counter (unless another rank
   already has) and retries over a fresh snapshot — members that died
   since the last snapshot are now excluded;
3. gives up with ``DeliveryError`` once ``max_attempts`` is exhausted.

At most one attempt ever commits: completing attempt ``a + 1`` needs
every survivor of its snapshot to participate — including attempt
``a``'s root if it is still alive — yet a root that committed ``a``
returns instead of joining ``a + 1``, and a root that died cannot
commit.  Ranks that time out after the commit fetch the committed
value, so every survivor returns the same result.  No randomness is
involved and all state transitions happen at well-defined simulated
times, so shrink runs are exactly as deterministic as the healthy
collectives.

This simulates the *cost structure* of the recovery protocol (timeout
detection, re-coordination rounds, refetch traffic); it is not a
byte-accurate ULFM implementation.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.comm.mpi import DeliveryError, Location, Rank

__all__ = [
    "Membership",
    "shrink_barrier",
    "shrink_bcast",
    "shrink_reduce",
    "shrink_allreduce",
]

#: tag space for shrink attempts, above the healthy collectives' blocks
_SHRINK_TAG = 1 << 24
#: tags per attempt: reduce phase at +0, broadcast phase at +_BCAST_OFFSET
_ATTEMPT_STRIDE = 64
_BCAST_OFFSET = 32
#: attempts per invocation tag block — the hard cap on ``max_attempts``
_MAX_ATTEMPTS = 64
_INVOCATION_STRIDE = _ATTEMPT_STRIDE * _MAX_ATTEMPTS
#: invocation blocks before tags wrap (far beyond any campaign length)
_INVOCATION_SPAN = 1 << 20

#: broadcast contribution of every non-root rank (module singleton, so
#: identity survives the by-reference message payloads)
_ABSENT = object()


class Membership:
    """Which ranks of a communicator are currently alive.

    A thin view over rank locations and a shared health ledger: rank
    ``r`` is live iff ``health.node_ok(locations[r].node)``.  Because
    every consumer reads the same ledger, one injected fault changes
    the membership of every attached communicator at once.
    """

    def __init__(self, locations: list[Location], health):
        self.locations = list(locations)
        self.health = health

    def is_live(self, rank: int) -> bool:
        return self.health.node_ok(self.locations[rank].node)

    def live_ranks(self) -> tuple[int, ...]:
        """Sorted tuple of currently-live ranks (a snapshot)."""
        ok = self.health.node_ok
        return tuple(r for r, loc in enumerate(self.locations) if ok(loc.node))


class _ShrinkState:
    """Shared cell of one shrink invocation (one per collective seq)."""

    __slots__ = ("attempt", "groups", "committed", "result", "group")

    def __init__(self):
        self.attempt = 0
        #: lazily-snapshotted live group per attempt; the first rank to
        #: enter an attempt freezes its membership, so every rank of
        #: the attempt agrees on the tree shape
        self.groups: dict[int, tuple[int, ...]] = {}
        self.committed = False
        self.result: Any = None
        #: the committing attempt's group (root = group[0])
        self.group: tuple[int, ...] = ()

    def group_for(self, membership: Membership, attempt: int) -> tuple[int, ...]:
        g = self.groups.get(attempt)
        if g is None:
            g = membership.live_ranks()
            self.groups[attempt] = g
        return g

    def commit(self, value: Any, group: tuple[int, ...]) -> None:
        self.committed = True
        self.result = value
        self.group = group


def _attempt(rank: Rank, group: tuple[int, ...], value, op, size, tag,
             timeout, state: _ShrinkState):
    """One reduce-then-broadcast attempt over ``group`` (generator)."""
    n = len(group)
    vr = group.index(rank.index)
    acc = value
    mask = 1
    while mask < n:
        if vr & mask:
            yield from rank.send(group[vr ^ mask], size, tag=tag, payload=acc)
            break
        partner = vr | mask
        if partner < n:
            msg = yield from rank.recv(
                source=group[partner], tag=tag, timeout=timeout
            )
            acc = op(acc, msg.payload)
        mask <<= 1
    if vr == 0:
        # Commit point: the outcome is now decided.  Ranks that time
        # out from here on fetch this value instead of opening another
        # attempt, so a root death mid-broadcast cannot fork results.
        state.commit(acc, group)
    btag = tag + _BCAST_OFFSET
    result = acc if vr == 0 else None
    mask = 1
    while mask < n:
        if vr & mask:
            msg = yield from rank.recv(
                source=group[vr ^ mask], tag=btag, timeout=timeout
            )
            result = msg.payload
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < n:
            yield from rank.send(group[vr + mask], size, tag=btag, payload=result)
        mask >>= 1
    return result


def _refetch(rank: Rank, state: _ShrinkState):
    """Pull an already-committed result (generator): charge one round
    trip to the committing root's location — the modeled cost of an
    orphaned rank asking the survivors for the agreement value."""
    comm = rank.comm
    root = state.group[0] if state.group else rank.index
    latency = comm.fabric.zero_byte_latency(
        comm.locations[rank.index], comm.locations[root]
    )
    if latency > 0:
        yield rank.sim.timeout(2.0 * latency)
    return state.result


def _shrink_engine(rank: Rank, value, op: Callable[[Any, Any], Any],
                   size: int, timeout: float | None, max_attempts: int):
    """Core shrink protocol (generator): returns ``(result, group)``
    where ``group`` is the committing attempt's membership snapshot."""
    if timeout is None or timeout <= 0:
        raise ValueError("shrink collectives need a positive timeout")
    if not 1 <= max_attempts <= _MAX_ATTEMPTS:
        raise ValueError(f"max_attempts must be in 1..{_MAX_ATTEMPTS}")
    comm = rank.comm
    member = comm.membership
    if member is None:
        raise ValueError(
            "shrink collectives need a live membership: call "
            "comm.attach_health(health) first"
        )
    seq = rank._next_coll_seq()
    state = comm._shrink_state.get(seq)
    if state is None:
        state = comm._shrink_state[seq] = _ShrinkState()
    base = _SHRINK_TAG + (seq % _INVOCATION_SPAN) * _INVOCATION_STRIDE
    for _ in range(max_attempts):
        attempt = state.attempt
        group = state.group_for(member, attempt)
        if rank.index not in group:
            raise DeliveryError(
                f"rank {rank.index}: excluded from shrink group (node "
                "marked failed at snapshot time)"
            )
        tag = base + attempt * _ATTEMPT_STRIDE
        try:
            result = yield from _attempt(
                rank, group, value, op, size, tag, timeout, state
            )
        except DeliveryError:
            if state.committed:
                result = yield from _refetch(rank, state)
                if comm.obs is not None:
                    comm.obs.event("mpi.shrink", rank.index, rank.sim.now,
                                   seq=seq, attempt=attempt, refetch=True)
                return result, state.group
            if state.attempt == attempt:
                state.attempt = attempt + 1
            continue
        if comm.obs is not None:
            comm.obs.event("mpi.shrink", rank.index, rank.sim.now,
                           seq=seq, attempt=attempt, group=len(group))
        return result, state.group
    raise DeliveryError(
        f"rank {rank.index}: shrink collective gave up after "
        f"{max_attempts} attempts"
    )


def shrink_allreduce(rank: Rank, value, op: Callable[[Any, Any], Any],
                     size: int = 8, timeout: float | None = None,
                     max_attempts: int = 8):
    """All-reduce over the live membership (generator): every surviving
    rank returns the same reduction of the survivors' contributions."""
    result, _group = yield from _shrink_engine(
        rank, value, op, size, timeout, max_attempts
    )
    return result


def shrink_barrier(rank: Rank, timeout: float | None = None,
                   max_attempts: int = 8):
    """Barrier over the live membership (generator): returns once the
    survivors have synchronized; dead ranks are not waited for."""
    yield from _shrink_engine(
        rank, None, lambda a, b: None, 0, timeout, max_attempts
    )


def shrink_reduce(rank: Rank, value, op: Callable[[Any, Any], Any],
                  root: int = 0, size: int = 8,
                  timeout: float | None = None, max_attempts: int = 8):
    """Reduce over the live membership (generator): the result lands at
    ``root`` if it survived, else at the committing group's lowest
    rank; every other rank returns ``None``."""
    result, group = yield from _shrink_engine(
        rank, value, op, size, timeout, max_attempts
    )
    owner = root if root in group else group[0]
    return result if rank.index == owner else None


def shrink_bcast(rank: Rank, value, root: int = 0, size: int = 8,
                 timeout: float | None = None, max_attempts: int = 8):
    """Broadcast over the live membership (generator).  The root's
    value reaches every survivor; if the root itself is dead the value
    is unobtainable and every survivor raises ``DeliveryError`` — a
    consistent outcome, decided by the same committed agreement."""
    contribution = value if rank.index == root else _ABSENT
    result, _group = yield from _shrink_engine(
        rank, contribution, lambda a, b: b if a is _ABSENT else a,
        size, timeout, max_attempts,
    )
    if result is _ABSENT:
        raise DeliveryError(
            f"rank {rank.index}: bcast root {root} is not in the live "
            "membership"
        )
    return result
