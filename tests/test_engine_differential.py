"""Differential test: the engine against the git-seed engine on random
programs.

Hypothesis generates small programs from the API both engines share —
timeouts on a coarse delay grid that includes 0 (so same-instant
cohorts happen), bare events that another process succeeds or fails
with a delay, spawn and join, ``AnyOf``/``AllOf``, caught interrupts,
processes that die of an uncaught exception, and a sequence of
``run(until=t)``, ``run(until=event)`` and ``run()`` calls.  Every
resume is recorded as ``(now, process, step, outcome)`` and every run
call as its result or exception type plus the clock after it; the
optimized engine must produce exactly the seed engine's records.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.framework.gitseed import load_seed_engine
from repro.sim import engine as current

#: delays and run horizons: exact binary fractions, 0 included
GRID = (0.0, 0.5, 1.0, 2.0)
HORIZONS = (0.0, 0.5, 1.0, 1.5, 2.5, 4.0)
#: bare events shared by every process of a program
N_EVENTS = 4
#: processes a program may create in all (spawns beyond it do nothing)
MAX_PROCS = 12


class Boom(Exception):
    """The failure programs raise and throw; shared by both engines."""


_item = st.one_of(
    st.tuples(st.just("ev"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("to"), st.sampled_from(GRID)),
)
_op = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(GRID)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1),
              st.booleans(), st.sampled_from(GRID)),
    st.tuples(st.just("spawn"), st.integers(0, 7)),
    st.tuples(st.just("join"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.sampled_from(("anyof", "allof")),
              st.lists(_item, min_size=1, max_size=3)),
    st.tuples(st.just("interrupt"), st.integers(0, MAX_PROCS - 1)),
    st.tuples(st.just("raise")),
)
_phase = st.one_of(
    st.tuples(st.just("time"), st.sampled_from(HORIZONS)),
    st.tuples(st.just("event"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("proc"), st.integers(0, MAX_PROCS - 1)),
)
_programs = st.lists(st.lists(_op, max_size=6), min_size=1, max_size=8)


def _norm(value):
    """An engine-independent form of a resume value: condition results
    map events to values, so keep the (unique) values only."""
    if isinstance(value, dict):
        return ("dict", tuple(sorted(map(str, value.values()))))
    return value


def run_program(eng, programs, n_initial, phases):
    """Run one generated program on engine module ``eng``; returns the
    resume records and the run-call records."""
    sim = eng.Simulator()
    log: list[tuple] = []
    events = [sim.event() for _ in range(N_EVENTS)]
    procs: list = []

    def start(index, name):
        if len(procs) < MAX_PROCS:
            procs.append(sim.process(body(programs[index], name), name=name))

    def body(ops, name):
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "trigger":
                _, e, ok, delay = op
                if not events[e].triggered:
                    if ok:
                        events[e].succeed(f"e{e}", delay=delay)
                    else:
                        events[e].fail(Boom(f"e{e}"), delay=delay)
                continue
            if kind == "spawn":
                start(op[1] % len(programs), f"{name}.{step}")
                continue
            if kind == "interrupt":
                victim = procs[op[1] % len(procs)]
                if victim.is_alive:
                    victim.interrupt(f"{name}.{step}")
                continue
            if kind == "raise":
                raise Boom(name)
            if kind == "timeout":
                target = sim.timeout(op[1], value=f"t{name}.{step}")
            elif kind == "wait":
                target = events[op[1]]
            elif kind == "join":
                target = procs[op[1] % len(procs)]
            else:
                members = [
                    events[arg] if tag == "ev"
                    else sim.timeout(arg, value=f"t{name}.{step}.{j}")
                    for j, (tag, arg) in enumerate(op[1])
                ]
                cls = eng.AnyOf if kind == "anyof" else eng.AllOf
                target = cls(sim, members)
            try:
                value = yield target
            except eng.Interrupt as exc:
                log.append((sim.now, name, step, "Interrupt", exc.cause))
                continue
            except Boom as exc:
                log.append((sim.now, name, step, "Boom", exc.args))
                continue
            log.append((sim.now, name, step, "ok", _norm(value)))
        return name

    for index in range(min(n_initial, len(programs))):
        start(index, f"p{index}")
    runs = []
    for phase in [*phases, ("all",)]:
        try:
            if phase[0] == "time":
                out = sim.run(until=phase[1])
            elif phase[0] == "event":
                out = sim.run(until=events[phase[1]])
            elif phase[0] == "proc":
                out = sim.run(until=procs[phase[1] % len(procs)])
            else:
                out = sim.run()
            runs.append(("ok", _norm(out), sim.now))
        except Boom as exc:
            runs.append(("Boom", exc.args, sim.now))
        except eng.Interrupt as exc:
            # a process killed by an interrupt no one joined
            runs.append(("Interrupt", exc.cause, sim.now))
        except eng.SimulationError:
            runs.append(("SimulationError", sim.now))
    return log, runs


@pytest.fixture(scope="module")
def seed_engine():
    seed = load_seed_engine()
    if seed is None:
        pytest.skip("seed engine unavailable (no git history)")
    return seed


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_programs, st.integers(1, 8), st.lists(_phase, max_size=3))
def test_engine_matches_seed_engine_on_random_programs(
    seed_engine, programs, n_initial, phases
):
    assert run_program(current, programs, n_initial, phases) == run_program(
        seed_engine, programs, n_initial, phases
    )


def test_differential_harness_exercises_the_api(seed_engine):
    """A fixed program that touches every generated construct, so the
    property above cannot pass on programs that do nothing."""
    programs = [
        [("trigger", 0, True, 0.5), ("timeout", 0.0), ("wait", 0),
         ("spawn", 1), ("join", 2), ("anyof", [("ev", 1), ("to", 1.0)])],
        [("timeout", 0.0), ("wait", 1), ("allof", [("ev", 0), ("to", 0.5)])],
        [("interrupt", 1), ("trigger", 1, False, 0.0), ("timeout", 2.0),
         ("raise",)],
    ]
    phases = [("time", 0.5), ("event", 1), ("proc", 2)]
    log, runs = run_program(current, programs, 3, phases)
    outcomes = {entry[3] for entry in log}
    assert outcomes == {"ok", "Interrupt", "Boom"}
    assert len(runs) == 4
    assert (log, runs) == run_program(seed_engine, programs, 3, phases)
