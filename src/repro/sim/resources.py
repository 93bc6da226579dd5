"""Shared-resource primitives for the DES kernel.

Two primitives cover the sharing patterns of the Roadrunner models:

:class:`Store`
    An unbounded FIFO of items with blocking ``get`` (e.g. a message
    mailbox).
:class:`BandwidthLink`
    A processor-sharing pipe: concurrent transfers split the link's
    bandwidth equally, the exact model of a full-duplex-ish shared bus.
    This is what produces the paper's "bidirectional < 2x unidirectional"
    behaviour when a direction-shared efficiency factor is applied.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Any

from repro.sim.engine import Event, Simulator

__all__ = ["Store", "BandwidthLink"]


class Store:
    """Unbounded FIFO item store with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event whose value is the
    item, fired immediately if an item is available, otherwise when the
    next ``put`` arrives.  Waiters are served in FIFO order.
    """

    __slots__ = ("sim", "_items", "_getters")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        evt = Event(self.sim)
        if self._items:
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt


class _Transfer:
    __slots__ = ("size", "remaining", "done", "start", "nbytes")

    def __init__(self, size: float, done, start: float):
        self.size = self.remaining = float(size)
        self.done = done
        # the link span's t0 and size attribute (the size as given)
        self.start = start
        self.nbytes = size


class BandwidthLink:
    """A fair-shared (processor-sharing) bandwidth pipe.

    ``n`` concurrent transfers each progress at ``bandwidth / n`` bytes
    per second.  :meth:`transfer` signals a completion target when the
    requested number of bytes has fully crossed the link.

    The implementation is event-driven: whenever the set of active
    transfers changes, remaining byte counts are advanced to the current
    time and a fresh completion timer is scheduled for the next finisher.
    Timers scheduled under an outdated sharing level are no longer the
    link's current ``_timer`` and do nothing when they fire.

    With ``obs`` (an :class:`~repro.obs.recorder.ObsRecorder`, or None)
    each completed transfer records a ``link`` span (start to bytes
    cleared, attribute ``size``) and ``link.bytes`` counter under ``name``.
    """

    __slots__ = ("sim", "bandwidth", "name", "obs", "_active", "_last_update",
                 "_timer", "bytes_transferred")

    def __init__(self, sim: Simulator, bandwidth: float, name: str = "link", obs=None):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.name = name
        self.obs = obs
        self._active: list[_Transfer] = []
        self._last_update = 0.0
        self._timer: Event | None = None
        #: cumulative bytes that have fully crossed the link
        self.bytes_transferred = 0.0

    @property
    def active_transfers(self) -> int:
        """Number of transfers currently sharing the link."""
        return len(self._active)

    def transfer(self, size: float, done=None):
        """Start moving ``size`` bytes and return ``done``.

        ``done`` is the completion target, anything with ``succeed(value)``:
        it gets the time the bytes cleared (``0.0`` at once for zero bytes).
        Omitted, a new :class:`~repro.sim.engine.Event` is made.
        """
        if not 0 <= size < inf:
            raise ValueError(f"transfer size must be finite and >= 0, got {size!r}")
        if done is None:
            done = Event(self.sim)
        if size == 0:
            done.succeed(0.0)
            return done
        self._advance()
        self._active.append(_Transfer(size, done, self.sim.now))
        self._reschedule()
        return done

    # -- internal ---------------------------------------------------------
    def _advance(self) -> None:
        """Progress all active transfers up to the current instant."""
        now = self.sim.now
        active = self._active
        if active:
            moved = (now - self._last_update) * (self.bandwidth / len(active))
            if moved > 0:
                for t in active:
                    t.remaining -= moved
        self._last_update = now

    def _reschedule(self) -> None:
        active = self._active
        if not active:
            self._timer = None
            return
        rate = self.bandwidth / len(active)
        next_done = min([t.remaining for t in active])
        delay = max(0.0, next_done / rate)
        self._timer = timer = self.sim.timeout(delay)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # superseded by a membership change
        self._advance()
        active = self._active
        # Absolute floor plus a relative tolerance: repeated rate-change
        # bookkeeping leaves O(eps * size) residuals.
        finished = [t for t in active if t.remaining <= max(1e-9, 1e-9 * t.size)]
        if not finished and active:
            # Guaranteed progress: if the earliest finisher's residual
            # is too small for the clock to advance (now + dt == now in
            # floating point), force-complete it rather than livelock.
            rate = self.bandwidth / len(active)
            nearest = min(active, key=lambda t: t.remaining)
            if self.sim.now + nearest.remaining / rate == self.sim.now:
                finished = [nearest]
        if finished:
            self._active = [t for t in active if t not in finished]
        now = self.sim.now
        obs = self.obs
        for t in finished:
            self.bytes_transferred += t.size
            t.done.succeed(now)
            if obs is not None:
                obs.span("link", self.name, t.start, now, size=t.nbytes)
                obs.count("link.bytes", t.nbytes, track=self.name)
        self._reschedule()
