"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.5)
        yield sim.timeout(0.5)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(2.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_nan_delays_rejected():
    """Every delay guard rejects NaN, fresh and recycled timeouts alike;
    infinity stays a legal delay."""
    nan = float("nan")
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(nan)
    with pytest.raises(SimulationError):
        sim.event().succeed(delay=nan)
    with pytest.raises(SimulationError):
        sim.event().fail(RuntimeError("x"), delay=nan)
    with pytest.raises(SimulationError):
        sim._schedule(sim.event(), delay=nan)

    def ticker(sim):
        for _ in range(3):
            yield sim.timeout(1.0)

    sim.process(ticker(sim))
    sim.run()
    assert sim._free_timeout is not None  # the next timeout is recycled
    with pytest.raises(SimulationError):
        sim.timeout(nan)
    sim.timeout(float("inf"))
    sim.event().succeed(delay=float("inf"))
    assert sim.now == 3.0


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append(name)

    sim.process(proc(sim, "late", 3.0))
    sim.process(proc(sim, "early", 1.0))
    sim.process(proc(sim, "mid", 2.0))
    sim.run()
    assert log == ["early", "mid", "late"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    log = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abcde":
        sim.process(proc(sim, name))
    sim.run()
    assert log == list("abcde")


def test_process_return_value_propagates():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim, out):
        value = yield sim.process(child(sim))
        out.append(value)

    out = []
    sim.process(parent(sim, out))
    sim.run()
    assert out == [42]


def test_run_until_event_returns_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return "done"

    proc = sim.process(child(sim))
    assert sim.run(until=proc) == "done"
    assert sim.now == pytest.approx(2.0)


def test_run_until_time_stops_and_sets_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == pytest.approx(3.5)


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_nan_raises():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert sim.now == 0.0
    sim.run(until=float("inf"))
    assert sim.now == float("inf")


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    evt = sim.event()
    got = []

    def waiter(sim):
        value = yield evt
        got.append((sim.now, value))

    def trigger(sim):
        yield sim.timeout(4.0)
        evt.succeed("payload")

    sim.process(waiter(sim))
    sim.process(trigger(sim))
    sim.run()
    assert got == [(4.0, "payload")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    evt = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield evt
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    evt.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates_to_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


def test_joining_failed_process_reraises_in_parent():
    sim = Simulator()
    seen = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("inner")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except RuntimeError as exc:
            seen.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert seen == ["inner"]


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("early")
    out = []

    def waiter(sim):
        yield sim.timeout(1.0)  # evt fires during this wait
        value = yield evt
        out.append((sim.now, value))

    sim.process(waiter(sim))
    sim.run()
    assert out == [(1.0, "early")]


def test_yield_non_event_raises_simulation_error():
    sim = Simulator()

    def bad(sim):
        yield 123

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_timeout_does_not_resume_later():
    """After an interrupt, the stale timeout must not re-wake the process."""
    sim = Simulator()
    wakes = []

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
            wakes.append("timeout")
        except Interrupt:
            wakes.append("interrupt")
        yield sim.timeout(20.0)  # outlive the original timeout
        wakes.append("end")

    def interrupter(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert wakes == ["interrupt", "end"]


def test_allof_waits_for_all():
    sim = Simulator()
    done = []

    def waiter(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(3.0, value="b")
        results = yield AllOf(sim, [t1, t2])
        done.append((sim.now, sorted(results.values())))

    sim.process(waiter(sim))
    sim.run()
    assert done == [(3.0, ["a", "b"])]


def test_anyof_fires_on_first():
    sim = Simulator()
    done = []

    def waiter(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(3.0, value="slow")
        results = yield AnyOf(sim, [t1, t2])
        done.append((sim.now, list(results.values())))

    sim.process(waiter(sim))
    sim.run()
    assert done == [(1.0, ["fast"])]


def test_empty_allof_fires_immediately():
    sim = Simulator()
    done = []

    def waiter(sim):
        results = yield AllOf(sim, [])
        done.append((sim.now, results))

    sim.process(waiter(sim))
    sim.run()
    assert done == [(0.0, {})]


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(7.0)
    assert sim.peek() == pytest.approx(7.0)
    sim.run()
    assert sim.peek() == float("inf")


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_many_processes_deterministic():
    """Two identical runs produce identical event orderings."""

    def run_once():
        sim = Simulator()
        log = []

        def proc(sim, pid):
            for i in range(5):
                yield sim.timeout((pid % 3) + 0.5)
                log.append((sim.now, pid, i))

        for pid in range(20):
            sim.process(proc(sim, pid))
        sim.run()
        return log

    assert run_once() == run_once()


def test_interrupt_detaches_among_many_waiters():
    """Interrupting one of many processes parked on the same event must
    detach exactly that process: the others still wake when the event
    fires, and the stale registration never re-resumes the victim."""
    sim = Simulator()
    gate = sim.event()
    woken = []
    interrupted = []

    def waiter(sim, tag):
        try:
            value = yield gate
            woken.append((tag, value))
        except Interrupt as intr:
            interrupted.append((tag, intr.cause))
            yield sim.timeout(5.0)  # victim keeps running afterwards

    procs = [sim.process(waiter(sim, i)) for i in range(50)]

    def interrupter(sim):
        yield sim.timeout(1.0)
        procs[17].interrupt("evicted")
        procs[31].interrupt("evicted")
        yield sim.timeout(1.0)
        gate.succeed("go")

    sim.process(interrupter(sim))
    sim.run()
    assert sorted(interrupted) == [(17, "evicted"), (31, "evicted")]
    assert len(woken) == 48
    assert {tag for tag, _ in woken} == set(range(50)) - {17, 31}
    assert all(value == "go" for _, value in woken)


def test_interrupt_victim_waiting_alone_detaches_fast_slot():
    """The single-waiter fast slot must also be cleared on interrupt:
    the event then fires with no one parked on it."""
    sim = Simulator()
    gate = sim.event()
    log = []

    def lone(sim):
        try:
            yield gate
            log.append("woken")
        except Interrupt:
            log.append("interrupted")
            yield sim.timeout(3.0)
            log.append("resumed later")

    victim = sim.process(lone(sim))

    def driver(sim):
        yield sim.timeout(1.0)
        victim.interrupt()
        yield sim.timeout(1.0)
        gate.succeed()

    sim.process(driver(sim))
    sim.run()
    assert log == ["interrupted", "resumed later"]
    assert sim.now == pytest.approx(4.0)
