"""Fault injection, retry transports, rerouting, and checkpoint models.

Roadrunner's 3,060 hybrid nodes are exactly the scale at which component
failure becomes a first-order term in delivered performance.  This
package adds the failure axis the paper's measurements assume away:

:mod:`repro.resilience.health`
    :class:`FabricHealth` — the shared ledger of failed nodes and links
    that the injector writes and every transport/routing layer reads.
:mod:`repro.resilience.faults`
    :class:`FaultInjector` — schedules permanent node failures into a
    :class:`~repro.sim.engine.Simulator` from seeded MTBF draws and
    delivers them to victim processes via ``Process.interrupt``.
:mod:`repro.resilience.policy`
    :class:`RetryPolicy` — the one seeded exponential-backoff schedule
    shared by SimMPI retransmission and the campaign worker pool's
    crash retries (delays are pure functions of ``(seed, attempt)``);
    :class:`DeliveryPolicy` — retry/timeout/exponential-backoff
    semantics for :class:`~repro.comm.mpi.SimMPI`.  The default policy
    is today's perfect fabric; ``SimMPI`` without a policy is untouched
    (zero overhead, asserted by ``benchmarks/perf/perf_resilience.py``).
:mod:`repro.resilience.checkpoint`
    :class:`CheckpointModel` — the Young/Daly optimal-interval
    checkpoint/restart cost model, applied to the full-machine sweep
    by :func:`sweep_failure_study` (``python -m repro resilience``;
    ``python -m repro resilience-correlated`` prices power-domain burst
    failures), which derives the write cost from the Panasas model.
:mod:`repro.resilience.recovery`
    :func:`run_with_recovery` — the end-to-end loop: a distributed
    sweep survives injected faults by re-placing around the health
    ledger, restoring from its last checkpoint, and continuing;
    :func:`placement_penalty` replays identical fault plans under
    failure-aware vs. naive placement (``examples/failure_study.py``).

Degraded-fabric rerouting lives with the rest of the routing code in
:mod:`repro.network.routing` (``degraded_route`` / ``degraded_hop_census``)
and :mod:`repro.network.loadmap` (``degraded_bisection_summary`` /
``degraded_link_loads``); the abort contract (``timeout=`` on SimMPI's
receives and collectives) lives with the communicator in
:mod:`repro.comm.mpi`.
"""

from repro.resilience.checkpoint import CheckpointModel, sweep_failure_study
from repro.resilience.faults import Fault, FaultInjector
from repro.resilience.health import FabricHealth, edge_key
from repro.resilience.policy import DeliveryPolicy, RetryPolicy
from repro.resilience.recovery import (
    RecoveryOutcome,
    draw_fault_plan,
    placement_penalty,
    run_with_recovery,
)

__all__ = [
    "CheckpointModel",
    "DeliveryPolicy",
    "FabricHealth",
    "Fault",
    "FaultInjector",
    "RecoveryOutcome",
    "RetryPolicy",
    "draw_fault_plan",
    "edge_key",
    "placement_penalty",
    "run_with_recovery",
    "sweep_failure_study",
]
