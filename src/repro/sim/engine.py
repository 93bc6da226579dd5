"""Core discrete-event simulation kernel.

The kernel is deliberately small and deterministic:

* The event queue is a binary heap ordered by ``(time, priority, seq)``.
  ``seq`` is a monotonically increasing tie-breaker, so two events
  scheduled for the same instant always fire in scheduling order.  This
  makes every simulation run bit-for-bit reproducible.
* Processes are plain Python generators.  A process yields an
  :class:`Event` (or a :class:`Process`, which is itself an event that
  fires on termination) and is resumed with the event's value when the
  event succeeds, or has the failure exception thrown into it when the
  event fails.

Determinism contract
--------------------
Given the same sequence of ``process()``/``timeout()``/``succeed()``
calls, the simulator pops events in an identical order and advances the
clock through identical floating-point times, run after run.  Every
scheduling path — including the inlined fast paths below — consumes
exactly one ``seq`` number per scheduled occurrence, in call order, and
waiters are woken in registration order; nothing in the kernel iterates
a ``set``/``dict`` whose order could vary.  The perf-regression harness
(``benchmarks/perf``) uses this contract as its acceptance oracle:
optimizations must leave event order, event times and process results
bit-identical.

Performance notes
-----------------
The event loop is the hottest code in the repository (every figure
reproduction that exercises the DES bottoms out here), so the kernel
trades some repetition for speed:

* all event types carry ``__slots__`` (no per-instance dict);
* the first process to wait on an event with no other callbacks is
  parked in the event's ``_waiter`` slot instead of the ``callbacks``
  list, and :meth:`Simulator.run` resumes such a waiter *inline* —
  no callback-list allocation, iteration, or ``_resume`` call frame
  on the dominant ``yield sim.timeout(...)`` / ``yield event`` path
  (callbacks registered after the waiter still fire, after it, in
  registration order — identical to the pre-fast-path wake order);
* process bootstrap pushes a two-word :class:`_Bootstrap` marker on
  the heap instead of a full pre-succeeded :class:`Event`;
* ``Timeout``/``succeed`` inline the heap push instead of calling
  :func:`_push`;
* a processed :class:`Timeout` is recycled through a bounded
  per-simulator free-list (``Simulator(pool_size=...)``, default 64
  entries, 0 disables) when the run loop holds the only remaining
  reference (checked with ``sys.getrefcount``), so steady-state
  timeout loops — including bursty many-rank schedules that retire
  several timeouts between creations — allocate no event objects at
  all.  A timeout anyone still references — held in a variable,
  parked in a condition — is never recycled, so ``.value``/``.ok``
  stay valid.  Process-bootstrap markers recycle through a one-deep
  slot the same way;
* after a heap pop, the next queued entry is hoisted into the empty
  min buffer when it fires at the same instant, so same-timestamp
  event cohorts (a wavefront diagonal firing together) drain through
  slotted pops;
* bounded ``run(until=t)`` pushes a heap sentinel at the horizon
  instead of comparing ``queue[0][0] <= t`` every iteration;
* a one-slot min buffer (``Simulator._next``, see :func:`_push`) sits
  in front of the heap: an entry that sorts before everything queued
  waits in a single attribute, so the push-one/pop-one cadence of a
  timeout chain bypasses ``heapq`` entirely while reproducing the
  heap's total order exactly;
* an attached observer (:meth:`Simulator.attach_observer`) rides the
  same inlined loop: :meth:`Simulator.run` holds it in a local and
  tests it once per dispatch (``if obs is not None``), so observed
  runs keep every fast path and plain runs pay one ``is None`` test.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from heapq import heapify, heappop, heappush
from sys import getrefcount
from time import perf_counter
from types import GeneratorType
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. time travel)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event priorities: URGENT events (internal resumptions) run before NORMAL
# events scheduled for the same instant, so resource handoffs complete
# before new work starts at a timestep.
URGENT = 0
NORMAL = 1


def _push(sim: "Simulator", entry: tuple) -> None:
    """Insert ``entry`` preserving the single-slot min-buffer invariant.

    ``sim._next``, when not None, holds the entry that sorts before
    everything in the heap; pops take it without touching the heap.  A
    workload alternating one push with one pop (the timeout chain every
    process body reduces to) then never pays for heap maintenance at
    all.  Entries are unique in their ``seq`` field, so the tuple
    comparisons below reproduce the heap's total order exactly — the
    slot is invisible to the determinism contract.

    The hot construction sites (``Timeout.__init__``,
    ``Simulator.timeout``, ``Event.succeed``, process bootstrap, process
    termination in :meth:`Simulator.run`) inline this body to avoid the
    call frame; keep them in sync.
    """
    nxt = sim._next
    if nxt is None:
        if sim._queue:
            heappush(sim._queue, entry)
        else:
            sim._next = entry
    elif entry < nxt:
        sim._next = entry
        heappush(sim._queue, nxt)
    else:
        heappush(sim._queue, entry)


def _unpush(sim: "Simulator", event: Any) -> None:
    """Take ``event``'s entry back out of the future-event set.

    O(queue length); only the exception path of a bounded
    :meth:`Simulator.run` calls it, to withdraw its horizon sentinel.
    """
    nxt = sim._next
    if nxt is not None and nxt[3] is event:
        sim._next = None
        return
    queue = sim._queue
    for i, entry in enumerate(queue):
        if entry[3] is event:
            del queue[i]
            heapify(queue)
            return


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* (scheduled to fire) via :meth:`succeed` or
    :meth:`fail` and *processed* when the simulator pops it from the
    queue, at which point the parked waiter (if any) is resumed and all
    registered callbacks run.  ``callbacks`` is a list until the event
    is processed and ``None`` afterwards; callbacks must only be
    registered on unprocessed events.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_waiter",
        "defused",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list | None = []
        self._value: Any = None
        self._ok: bool | None = None
        self._triggered = False
        self._processed = False
        #: the first process waiting on this event, resumed inline by
        #: the run loop before any ``callbacks`` entries fire
        self._waiter: Process | None = None
        #: set True once some waiter consumed a failure; unhandled failures
        #: are re-raised by the run loop once the event's callbacks ran.
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Valid only after triggering."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's result value (or failure exception)."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        # Negated >= so NaN (for which every comparison is False) is
        # rejected along with negative delays.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        entry = (sim._now + delay, NORMAL, seq, self)
        # Inline _push (hot: every process termination lands here).
        nxt = sim._next
        if nxt is None:
            if sim._queue:
                heappush(sim._queue, entry)
            else:
                sim._next = entry
        elif entry < nxt:
            sim._next = entry
            heappush(sim._queue, nxt)
        else:
            heappush(sim._queue, entry)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        _push(sim, (sim._now + delay, NORMAL, seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # rejects NaN too
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Inline Event.__init__ + _push: a timeout is born triggered, and
        # this constructor is the hottest allocation site in the
        # repository.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._waiter = None
        self.defused = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        entry = (sim._now + delay, NORMAL, seq, self)
        # Inline _push (hottest allocation site in the repository).
        nxt = sim._next
        if nxt is None:
            if sim._queue:
                heappush(sim._queue, entry)
            else:
                sim._next = entry
        elif entry < nxt:
            sim._next = entry
            heappush(sim._queue, nxt)
        else:
            heappush(sim._queue, entry)


class _Bootstrap:
    """A heap marker that resumes a newly created process.

    Stands in for the pre-succeeded bootstrap :class:`Event` the kernel
    used to allocate per process: two words instead of a full event plus
    callbacks list.  Only :meth:`Simulator.run` reads it.
    """

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        self.process = process


class Process(Event):
    """A running simulation process wrapping a generator.

    A :class:`Process` is itself an :class:`Event` that fires when the
    generator terminates: its value is the generator's return value, or
    the uncaught exception on failure.  This lets one process ``yield``
    another to join it.
    """

    __slots__ = ("generator", "name", "_target", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator, name: str | None = None):
        if type(generator) is GeneratorType:
            if not name:
                name = generator.__name__
        elif isinstance(generator, Generator):
            if not name:
                name = getattr(generator, "__name__", "process")
        else:
            raise TypeError(f"Process requires a generator, got {type(generator)!r}")
        # Inline Event.__init__: process creation is the spawn/join hot
        # path, and the ABC isinstance above is bypassed for the plain
        # generators every caller in this repository passes.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._processed = False
        self._waiter = None
        self.defused = False
        self.generator = generator
        self.name = name
        self._target: Event | None = None
        self._send = generator.send
        self._throw = generator.throw
        # Bootstrap: resume the generator at the current instant.  The
        # marker consumes one seq number like any scheduled event and is
        # drawn from a one-deep free slot refilled by the run loop.
        marker = sim._free_bootstrap
        if marker is not None:
            sim._free_bootstrap = None
            marker.process = self
        else:
            marker = _Bootstrap(self)
        sim._seq = seq = sim._seq + 1
        entry = (sim._now, URGENT, seq, marker)
        # Inline _push (URGENT: bootstraps run before NORMAL events at
        # the same instant).
        nxt = sim._next
        if nxt is None:
            if sim._queue:
                heappush(sim._queue, entry)
            else:
                sim._next = entry
        elif entry < nxt:
            sim._next = entry
            heappush(sim._queue, nxt)
        else:
            heappush(sim._queue, entry)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return not self._triggered

    @property
    def target(self) -> Event | None:
        """The event this process is currently waiting on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        sim = self.sim
        evt = Event.__new__(Event)
        evt.sim = sim
        evt.callbacks = [self._resume]
        evt._value = Interrupt(cause)
        evt._ok = False
        evt._triggered = True
        evt._processed = False
        evt._waiter = None
        evt.defused = True
        # Detach from the current target so its eventual firing is
        # ignored.  A target that has already fired is left alone: its
        # dispatch is under way, and this process gets that event before
        # the interrupt, as the seed engine's callback snapshot did.
        target = self._target
        if target is not None and not target._processed:
            if target._waiter is self:
                target._waiter = None
            else:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None
        sim._seq = seq = sim._seq + 1
        _push(sim, (sim._now, URGENT, seq, evt))

    # -- internal ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        send = self._send
        while True:
            if event._ok:
                try:
                    target = send(event._value)
                except StopIteration as stop:
                    self._terminate(value=stop.value)
                    return
                except BaseException as exc:
                    self._terminate(error=exc)
                    return
            else:
                event.defused = True
                try:
                    target = self._throw(event._value)
                except StopIteration as stop:
                    self._terminate(value=stop.value)
                    return
                except BaseException as exc:
                    if exc is event._value:
                        # The process did not handle the failure; it
                        # propagates as this process's own failure.
                        self._terminate(error=exc)
                        return
                    raise
            if not isinstance(target, Event):
                # One error for one mistake, whichever path resumed it.
                self._park_slow(target)
                return
            if target.sim is not sim:
                raise SimulationError("cannot wait on an event from another simulator")
            if target._processed:
                # Already fired: loop and resume immediately with its value.
                event = target
                continue
            self._target = target
            if target._waiter is None and not target.callbacks:
                target._waiter = self
            else:
                target.callbacks.append(self._resume)
            return

    def _park_slow(self, target: Any) -> None:
        """Handle a non-fast-path yield from the inlined run loop.

        Covers non-event yields, events of another simulator, and
        already-processed targets.  :meth:`_resume` hands its non-event
        yields here too, so both paths end the run with one error.
        """
        if isinstance(target, Event):
            if target.sim is not self.sim:
                raise SimulationError("cannot wait on an event from another simulator")
            # target is processed here (unprocessed same-sim events are
            # parked inline by the run loop): consume it immediately.
            self._resume(target)
            return
        exc = SimulationError(
            f"process {self.name!r} yielded non-event {target!r}"
        )
        try:
            self._throw(exc)
        except StopIteration as stop:
            self._terminate(value=stop.value)
            return
        except SimulationError as err:
            self._terminate(error=err)
            return
        raise exc

    def _terminate(self, value: Any = None, error: BaseException | None = None) -> None:
        self._target = None
        if error is not None:
            self.fail(error)
        else:
            self.succeed(value)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        for evt in self.events:
            if evt.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for evt in self.events:
            if evt._processed:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._processed and e._ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once *all* constituent events have fired successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event fires successfully."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


#: heap priority of the run-horizon sentinel: after every real event
#: scheduled for the same instant (``run(until=t)`` is inclusive of t).
_AFTER = 2


class _Stop:
    """Run-horizon sentinel pushed on the heap by bounded :meth:`Simulator.run`.

    Popping it ends the loop with no per-event horizon comparison.  A
    run that raises takes its sentinel back out of the queue, so no
    later run pops it and moves the clock to a horizon nothing happened
    at.
    """

    __slots__ = ()


#: default depth of the per-simulator timeout free-list (see Simulator)
_POOL_SIZE = 64


class Simulator:
    """The event loop: owns the clock and the future-event set.

    The future-event set is a binary heap of ``(time, priority, seq,
    event)`` entries behind a one-slot min buffer (see :func:`_push`).
    ``pool_size`` bounds the timeout free-list (``None`` uses the
    module default, ``0`` disables recycling entirely — the unpooled
    reference path the full-machine benchmark cross-checks against).
    """

    __slots__ = (
        "_now",
        "_queue",
        "_next",
        "_seq",
        "_free_timeout",
        "_free_timeouts",
        "_free_bootstrap",
        "_pool_cap",
        "_observer",
    )

    def __init__(self, pool_size: int | None = None):
        self._now = 0.0
        #: binary heap of (time, priority, seq, event) entries
        self._queue: list[tuple[float, int, int, Event]] = []
        #: single-slot min buffer in front of the heap (see _push)
        self._next: tuple[float, int, int, Event] | None = None
        self._seq = 0
        #: one-deep first-level timeout free slot (the chain cadence
        #: recycles through this without touching the overflow list)
        self._free_timeout: Timeout | None = None
        #: overflow free-list of dead Timeout objects behind the slot
        #: (bursty schedules retire several timeouts between
        #: creations); bounded by _pool_cap
        self._free_timeouts: list[Timeout] = []
        #: one-deep free slot for process-bootstrap heap markers
        self._free_bootstrap: _Bootstrap | None = None
        self._pool_cap = _POOL_SIZE if pool_size is None else pool_size
        #: observability sink (see attach_observer); None skips the
        #: per-dispatch reporting in run()
        self._observer = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- observability -------------------------------------------------------
    @property
    def observer(self):
        """The attached observability sink, if any."""
        return self._observer

    def attach_observer(self, observer) -> None:
        """Report every dispatch of :meth:`run` to ``observer``.

        ``observer`` implements ``_note_event(cls_name, proc_name,
        host_dt)`` (see :class:`repro.obs.recorder.ObsRecorder`) and may
        expose a ``host_run_time`` accumulator.  Observation never
        changes the event timeline: the observed run takes the same
        loop as an unobserved one and only *reads* state — the
        determinism contract holds with or without an observer.
        ``None`` detaches.
        """
        self._observer = observer

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        t = self._free_timeout
        if t is not None:
            self._free_timeout = None
        else:
            free = self._free_timeouts
            if not free:
                return Timeout(self, delay, value)
            t = free.pop()
        if not delay >= 0:  # rejects NaN too
            self._free_timeout = t
            raise SimulationError(f"negative timeout delay: {delay!r}")
        t._value = value
        t.delay = delay
        self._seq = seq = self._seq + 1
        entry = (self._now + delay, NORMAL, seq, t)
        # Inline _push (the recycled-timeout fast path).
        nxt = self._next
        if nxt is None:
            if self._queue:
                heappush(self._queue, entry)
            else:
                self._next = entry
        elif entry < nxt:
            self._next = entry
            heappush(self._queue, nxt)
        else:
            heappush(self._queue, entry)
        return t

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all ``events`` have fired.

        No command runs it.  It stays for an oracle: the seed commit's
        ``network/simfabric.py``, which ``benchmarks/perf/perf_network.py``
        runs on today's engine to check ``ContendedFabric`` bit for bit,
        joins its link transfers with it.
        """
        return AllOf(self, events)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, time ``until``, or event ``until``.

        Returns the event's value when ``until`` is an event that fired.

        With an observer attached, every dispatch (bar horizon
        sentinels) is reported to it with the resumed process's name
        and the host time since the previous dispatch ended — the pop
        that produced the event included, so the per-dispatch times
        partition the loop's wall time — and the whole call's host time
        is added to its ``host_run_time``.
        """
        obs = self._observer
        if obs is not None:
            t_run = t0 = perf_counter()
        # NB: named stop_evt, not stop — the resume block's `except
        # StopIteration as stop` clause deletes `stop` on block exit.
        stop_evt = None
        marker = None
        try:
            if isinstance(until, Event):
                # An awaited stop event runs through the same inlined hot
                # loop as an unbounded run: one `stop_evt._processed`
                # check per iteration (the full-machine sweep drives its
                # finish-line event through here, so this is the hottest
                # run() mode in the repo).
                stop_evt = until
            elif until is not None:
                horizon = float(until)
                if not horizon >= self._now:  # rejects NaN too
                    raise SimulationError(
                        f"run(until={horizon!r}) is in the past (now={self._now!r})"
                    )
                # A sentinel at the horizon (at _AFTER priority, i.e.
                # behind every real event scheduled for that instant)
                # replaces a per-iteration `queue[0][0] <= horizon` bound
                # check.  The loop below cannot drain the queue without
                # popping it: a bounded run always exits at its own marker,
                # or by an exception, which takes the marker back out (the
                # except clause below).
                marker = _Stop()
                self._seq = seq = self._seq + 1
                _push(self, (horizon, _AFTER, seq, marker))
            # The hot loop: queue/heappop bound to locals, dispatched on
            # the event's concrete class (Timeout first — it dominates
            # every workload in this repo), and the parked waiter resumed
            # by one inline block shared by every class, with no _resume
            # call frame.  Heap pops are monotone by construction
            # (negative and NaN delays are rejected at scheduling time),
            # so the loop does not re-check that time moves forward; a
            # checked mode is where that invariant would be asserted.
            queue = self._queue
            pop = heappop
            free = self._free_timeouts
            cap = self._pool_cap
            while True:
                if stop_evt is not None and stop_evt._processed:
                    break
                entry = self._next
                if entry is not None:
                    self._next = None
                    time, _prio, _seq, event = entry
                    # Drop the tuple: the refcount==2 recycle tests below
                    # must see only this frame's reference to the event.
                    entry = None
                elif queue:
                    time, _prio, _seq, event = pop(queue)
                    if queue and queue[0][0] == time:
                        # Same-instant cohort (a wavefront diagonal firing
                        # together): hoist the next member into the empty
                        # slot so the cohort drains through slotted pops
                        # and pushes during dispatch compare against it
                        # first.
                        self._next = pop(queue)
                else:
                    break
                self._now = time
                cls = type(event)
                if cls is Timeout:
                    # Timeouts always succeed.
                    event._processed = True
                    waiter = event._waiter
                    if waiter is not None:
                        event._waiter = None
                        value = event._value
                elif cls is _Bootstrap:
                    waiter = event.process
                    value = None
                elif cls is _Stop:
                    # The only sentinel queued is this run's: a run that
                    # raises takes its own back out.
                    break
                else:
                    # Generic event (Process termination, bare Events,
                    # conditions).
                    event._processed = True
                    waiter = event._waiter
                    if not event._ok:
                        # Failure: the generic path throws it into the
                        # parked waiter, then runs the callbacks; a
                        # failure nobody consumed propagates out of run().
                        if waiter is not None:
                            event._waiter = None
                            waiter._resume(event)
                        callbacks = event.callbacks
                        event.callbacks = None
                        for callback in callbacks:
                            callback(event)
                        if obs is not None:
                            t1 = perf_counter()
                            obs._note_event(
                                cls.__name__,
                                None if waiter is None else waiter.name,
                                t1 - t0,
                            )
                            t0 = t1
                        if not event.defused:
                            raise event._value
                        continue
                    if waiter is not None:
                        event._waiter = None
                        value = event._value
                if waiter is not None:
                    # Resume the waiter inline with the event's value.
                    send = waiter._send
                    while True:
                        try:
                            target = send(value)
                        except StopIteration as stop:
                            waiter._target = None
                            # Inline Event.succeed + _push: process
                            # termination is the spawn/join hot path.
                            if waiter._triggered:
                                raise SimulationError("event already triggered")
                            waiter._triggered = True
                            waiter._ok = True
                            waiter._value = stop.value
                            self._seq = seq = self._seq + 1
                            entry = (time, NORMAL, seq, waiter)
                            nxt = self._next
                            if nxt is None:
                                if queue:
                                    heappush(queue, entry)
                                else:
                                    self._next = entry
                            elif entry < nxt:
                                self._next = entry
                                heappush(queue, nxt)
                            else:
                                heappush(queue, entry)
                            # Clear the parked-yield local: a stale
                            # reference would defeat the recycle tests.
                            target = None
                            break
                        except BaseException as exc:
                            waiter._target = None
                            waiter.fail(exc)
                            target = None
                            break
                        # Park on the yielded event.  Timeout targets get
                        # their own copy of the parking code so its
                        # attribute sites stay monomorphic (CPython
                        # specializes them per type).
                        if type(target) is Timeout and target.sim is self:
                            if target._processed:
                                # Already fired: resume with its value.
                                value = target._value
                                continue
                            waiter._target = target
                            if target._waiter is None and not target.callbacks:
                                target._waiter = waiter
                            else:
                                target.callbacks.append(waiter._resume)
                        elif (
                            isinstance(target, Event)
                            and target.sim is self
                            and not target._processed
                        ):
                            waiter._target = target
                            if target._waiter is None and not target.callbacks:
                                target._waiter = waiter
                            else:
                                target.callbacks.append(waiter._resume)
                        else:
                            waiter._park_slow(target)
                            break
                        break
                if cls is Timeout:
                    # Callbacks registered after the parked waiter fire
                    # after it, preserving registration order; with none,
                    # recycle the timeout if the loop holds the only live
                    # reference (into the one-deep slot first, the
                    # overflow list once the slot is taken).
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = None
                        for callback in callbacks:
                            callback(event)
                    elif cap and getrefcount(event) == 2:
                        if self._free_timeout is None:
                            # callbacks (the original empty list) stays
                            # attached.
                            event._value = None
                            event._processed = False
                            self._free_timeout = event
                        elif len(free) < cap:
                            event._value = None
                            event._processed = False
                            free.append(event)
                        else:
                            event.callbacks = None
                    else:
                        event.callbacks = None
                elif cls is _Bootstrap:
                    # Recycle the two-word marker for the next spawn (the
                    # loop holds the only reference once the entry is
                    # gone).
                    if self._free_bootstrap is None and getrefcount(event) == 2:
                        event.process = None
                        self._free_bootstrap = event
                else:
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                if obs is not None:
                    t1 = perf_counter()
                    obs._note_event(
                        "Bootstrap" if cls is _Bootstrap else cls.__name__,
                        None if waiter is None else waiter.name,
                        t1 - t0,
                    )
                    t0 = t1
            if marker is not None:
                self._now = horizon
            if stop_evt is not None:
                if stop_evt._processed:
                    if stop_evt._ok:
                        return stop_evt._value
                    stop_evt.defused = True
                    raise stop_evt._value
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            return None
        except BaseException:
            if marker is not None:
                _unpush(self, marker)
            raise
        finally:
            if obs is not None:
                try:
                    obs.host_run_time += perf_counter() - t_run
                except AttributeError:
                    pass
