"""Edge-case tests for the DES kernel beyond the basic suite."""

import pytest

from repro.sim import (
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_run_until_already_processed_event_returns_immediately():
    sim = Simulator()
    evt = sim.timeout(1.0, value="x")
    sim.run()
    assert evt.processed
    assert sim.run(until=evt) == "x"


def test_run_until_failed_event_reraises():
    sim = Simulator()
    evt = sim.event()
    evt.fail(ValueError("nope"))
    with pytest.raises(ValueError, match="nope"):
        sim.run(until=evt)


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    orphan = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=orphan)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        _ = evt.value
    with pytest.raises(SimulationError):
        _ = evt.ok


def test_fail_requires_exception_instance():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(TypeError):
        evt.fail("not an exception")  # type: ignore[arg-type]


def test_anyof_with_prefailed_event():
    sim = Simulator()
    bad = sim.event()
    bad.fail(RuntimeError("early"))
    bad.defused = True
    sim.run()
    caught = []

    def waiter(sim):
        try:
            yield AnyOf(sim, [bad, sim.timeout(1.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    sim.run()
    assert caught == ["early"]


def test_process_can_spawn_processes():
    sim = Simulator()
    order = []

    def child(sim, name, delay):
        yield sim.timeout(delay)
        order.append(name)

    def parent(sim):
        kids = [sim.process(child(sim, f"c{i}", i + 1.0)) for i in range(3)]
        for kid in kids:
            yield kid
        order.append("parent")

    sim.process(parent(sim))
    sim.run()
    assert order == ["c0", "c1", "c2", "parent"]


def test_event_succeed_with_delay():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("later", delay=5.0)
    out = []

    def waiter(sim):
        value = yield evt
        out.append((sim.now, value))

    sim.process(waiter(sim))
    sim.run()
    assert out == [(5.0, "later")]


def test_interrupt_with_no_cause():
    sim = Simulator()
    causes = []

    def sleeper(sim):
        try:
            yield sim.timeout(5.0)
        except Interrupt as intr:
            causes.append(intr.cause)

    def interrupter(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt()

    v = sim.process(sleeper(sim))
    sim.process(interrupter(sim, v))
    sim.run()
    assert causes == [None]
