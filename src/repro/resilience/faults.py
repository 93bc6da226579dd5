"""Seeded fault injection for the discrete-event machine models.

A :class:`FaultInjector` turns MTBF parameters into concrete failure
times and plays them into a running :class:`~repro.sim.engine.Simulator`:
at each failure instant it flips the shared
:class:`~repro.resilience.health.FabricHealth` ledger, records a
``"fault"`` event on an attached recorder, and — for node faults —
delivers an :class:`~repro.sim.engine.Interrupt` to every process
registered as living on the victim via ``Process.interrupt``, exactly
the machinery the engine already exposes for cross-process signalling.

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
from typing import Any, Iterable

from repro.obs.recorder import active
from repro.resilience.health import FabricHealth
from repro.sim.engine import Process, Simulator

__all__ = ["Fault", "FaultInjector", "checkpoint_clock"]


@dataclass(frozen=True)
class Fault:
    """One injected failure (also the ``Interrupt.cause`` victims see)."""

    #: simulated time the component fails
    time: float
    #: what failed; the injector schedules only ``"node"`` faults
    kind: str
    #: global node id
    target: Any
    #: seconds until the component returns to service (None: permanent)
    repair_after: float | None = None


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
        ``"fault"`` event per failure and per repair, on the failed
        node's id as track.
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
        self.obs = active(obs)
        #: every Fault scheduled, in scheduling order (the timetable)
        self.faults: list[Fault] = []
        self._victims: dict[int, list[Process]] = {}

    # -- victim registry ---------------------------------------------------
    def watch(self, node: int, process: Process) -> None:
        """Register ``process`` as running on ``node``: a node fault
        interrupts it (kill semantics unless it catches the Interrupt)."""
        self._victims.setdefault(node, []).append(process)

    # -- explicit scheduling ----------------------------------------------
    def fail_node_at(
        self, time: float, node: int, repair_after: float | None = None
    ) -> Fault:
        """Schedule a node failure at an explicit simulated time."""
        fault = Fault(time=time, kind="node", target=node, repair_after=repair_after)
        self.faults.append(fault)
        self.sim.process(self._node_fault(fault), name=f"fault-node{node}")
        return fault

    # -- MTBF-driven scheduling -------------------------------------------
    def schedule_node_faults(
        self,
        nodes: Iterable[int],
        mtbf: float,
        horizon: float,
        repair_after: float | None = None,
    ) -> int:
        """Draw exponential failure times for every node and schedule
        those landing before ``horizon``; returns how many were placed.

        ``mtbf`` is the per-node mean time between failures, so over
        ``n`` nodes the aggregate failure rate is ``n / mtbf`` — the
        scaling that makes failure a first-order term at 3,060 nodes.
        """
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        placed = 0
        rate = 1.0 / mtbf
        for node in nodes:
            t = self.rng.expovariate(rate)
            while t < horizon:
                self.fail_node_at(t, node, repair_after=repair_after)
                placed += 1
                if repair_after is None:
                    break  # a permanent failure ends this node's history
                t += repair_after + self.rng.expovariate(rate)
        return placed

    def schedule_correlated_node_faults(
        self,
        nodes: Iterable[int],
        mtbf: float,
        horizon: float,
        domain_size: int = 180,
        repair_after: float | None = None,
    ) -> int:
        """Correlated failures by shared power domain: one exponential
        stream per domain, each event failing *every* node of the
        domain at once; returns node failures placed.

        Domains are keyed on ``node // domain_size`` — 180 groups a
        whole CU behind its power distribution, 2 pairs the triblades
        that share a chassis power supply.  Against the independent
        model of :meth:`schedule_node_faults`, the same per-node
        ``mtbf`` now produces ``domain_size``-fold *fewer* interrupting
        events (each taking down ``domain_size`` nodes), which is what
        shifts the Daly-optimal checkpoint interval — see
        ``CheckpointModel.from_node_mtbf(burst_size=...)``.
        """
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        domains: dict[int, list[int]] = {}
        for node in nodes:
            domains.setdefault(node // domain_size, []).append(node)
        placed = 0
        rate = 1.0 / mtbf
        for domain in sorted(domains):
            members = sorted(domains[domain])
            t = self.rng.expovariate(rate)
            while t < horizon:
                for node in members:
                    self.fail_node_at(t, node, repair_after=repair_after)
                placed += len(members)
                if repair_after is None:
                    break  # permanent: the domain's history ends here
                t += repair_after + self.rng.expovariate(rate)
        return placed

    # -- the fault processes ----------------------------------------------
    def _node_fault(self, fault: Fault):
        sim = self.sim
        yield sim.timeout(fault.time - sim.now)
        self.health.fail_node(fault.target)
        self._record(fault, "fail", repair_after=fault.repair_after)
        for victim in self._victims.get(fault.target, ()):
            if victim.is_alive:
                # Defuse first: a victim that does not catch the
                # Interrupt dies quietly instead of aborting the run.
                victim.defused = True
                victim.interrupt(fault)
        if fault.repair_after is not None:
            yield sim.timeout(fault.repair_after)
            self.health.repair_node(fault.target)
            self._record(fault, "repair")

    def _record(self, fault: Fault, action: str, **attrs) -> None:
        if self.obs is not None:
            self.obs.event("fault", fault.target, self.sim.now,
                           kind=fault.kind, action=action, **attrs)


def checkpoint_clock(
    sim: Simulator,
    interval: float,
    cost: float,
    obs=None,
    source: Any = "checkpoint",
    horizon: float | None = None,
):
    """A periodic checkpoint process (generator): every ``interval``
    simulated seconds it spends ``cost`` seconds writing and records a
    ``"checkpoint"`` event (track ``source``, at the write's start) on
    ``obs``.  Run it alongside a workload to surface the checkpoint
    overhead the :class:`~repro.resilience.checkpoint.CheckpointModel`
    accounts for analytically::

        sim.process(checkpoint_clock(sim, interval=60.0, cost=2.0,
                                     obs=obs, horizon=600.0))
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if cost < 0:
        raise ValueError("cost must be >= 0")
    obs = active(obs)
    n = 0
    while horizon is None or sim.now + interval + cost <= horizon:
        yield sim.timeout(interval)
        start = sim.now
        if cost > 0:
            yield sim.timeout(cost)
        n += 1
        if obs is not None:
            obs.event("checkpoint", source, start, n=n, cost=cost)
