"""Seeded fault injection for the discrete-event machine models.

A :class:`FaultInjector` turns MTBF parameters into concrete failure
times and plays them into a running :class:`~repro.sim.engine.Simulator`:
at each failure instant it flips the shared
:class:`~repro.resilience.health.FabricHealth` ledger, records a
``"fault"`` event on an attached recorder, and delivers an
:class:`~repro.sim.engine.Interrupt` to every process registered as
living on the failed node via ``Process.interrupt``, exactly the
machinery the engine already exposes for cross-process signalling.

Determinism
-----------
All random draws come from one ``random.Random(seed)`` consumed at
*schedule* time (before the simulator runs), so a given seed produces
one fixed fault timetable regardless of what the workload does; the
engine's determinism contract then makes the whole failure run
bit-reproducible (see ``tests/test_resilience.py`` and the conventions
of ``tests/test_determinism.py``).

Victims that want to survive a fault catch the interrupt::

    try:
        msg = yield from rank.recv()
    except Interrupt as stop:
        fault = stop.cause          # the Fault that hit this node
        ...checkpoint / drain / reroute...

Victims that don't catch it die; the injector marks killed processes
``defused`` so an uncaught fault terminates the victim without
aborting the whole simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf
from typing import Any, Iterable

from repro.resilience.health import FabricHealth
from repro.sim.engine import Process, Simulator

__all__ = ["Fault", "FaultInjector"]


@dataclass(frozen=True)
class Fault:
    """One injected failure (also the ``Interrupt.cause`` victims see)."""

    #: simulated time the component fails
    time: float
    #: what failed; the injector schedules only ``"node"`` faults
    kind: str
    #: global node id
    target: Any


class FaultInjector:
    """Schedules node failures into a simulator from MTBF draws.

    Parameters
    ----------
    sim:
        The simulator the faults play into.
    health:
        Shared ledger the faults flip; created if not supplied.
    seed:
        Seed of the injector's private RNG; equal seeds reproduce the
        exact fault timetable.
    obs:
        Optional :class:`~repro.obs.recorder.ObsRecorder`; receives one
        ``"fault"`` event per failure, on the failed node's id as
        track.
    """

    def __init__(
        self,
        sim: Simulator,
        health: FabricHealth | None = None,
        seed: int = 0,
        obs=None,
    ):
        self.sim = sim
        self.health = health if health is not None else FabricHealth()
        self.rng = random.Random(seed)
        self.obs = obs
        #: every Fault scheduled, in scheduling order (the timetable)
        self.faults: list[Fault] = []
        self._victims: dict[int, list[Process]] = {}

    # -- victim registry ---------------------------------------------------
    def watch(self, node: int, process: Process) -> None:
        """Register ``process`` as running on ``node``: a node fault
        interrupts it (kill semantics unless it catches the Interrupt)."""
        self._victims.setdefault(node, []).append(process)

    # -- explicit scheduling ----------------------------------------------
    def fail_node_at(self, time: float, node: int) -> Fault:
        """Schedule a permanent node failure at an explicit simulated
        time."""
        fault = Fault(time=time, kind="node", target=node)
        self.faults.append(fault)
        self.sim.process(self._node_fault(fault), name=f"fault-node{node}")
        return fault

    # -- MTBF-driven scheduling -------------------------------------------
    def schedule_node_faults(
        self, nodes: Iterable[int], mtbf: float, horizon: float
    ) -> int:
        """Draw one exponential failure time per node and schedule
        those landing before ``horizon``; returns how many were placed.

        ``mtbf`` is the per-node mean time between failures, so over
        ``n`` nodes the aggregate failure rate is ``n / mtbf`` — the
        scaling that makes failure a first-order term at 3,060 nodes.
        A failure is permanent, so it ends that node's history.
        """
        if not 0 < mtbf < inf:
            raise ValueError(f"mtbf must be finite and positive, got {mtbf!r}")
        if not 0 < horizon < inf:
            raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
        placed = 0
        rate = 1.0 / mtbf
        for node in nodes:
            t = self.rng.expovariate(rate)
            if t < horizon:
                self.fail_node_at(t, node)
                placed += 1
        return placed

    # -- the fault processes ----------------------------------------------
    def _node_fault(self, fault: Fault):
        sim = self.sim
        yield sim.timeout(fault.time - sim.now)
        self.health.fail_node(fault.target)
        if self.obs is not None:
            self.obs.event("fault", fault.target, sim.now,
                           kind=fault.kind, action="fail")
        for victim in self._victims.get(fault.target, ()):
            if victim.is_alive:
                # Defuse first: a victim that does not catch the
                # Interrupt dies quietly instead of aborting the run.
                victim.defused = True
                victim.interrupt(fault)
