"""Discrete-event simulation engine.

A compact, dependency-free process-oriented DES kernel in the style of
SimPy: simulation processes are Python generators that ``yield`` events
(timeouts, triggerable events, store gets) and are resumed by the
:class:`~repro.sim.engine.Simulator` event loop when those events fire.

The engine is the substrate on which all of the Roadrunner machine models
run: links and NICs are bandwidth-shared pipes, and application ranks
(e.g. the distributed Sweep3D sweep) are processes exchanging simulated
messages.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import BandwidthLink, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthLink",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
