"""Recovery orchestration: run a distributed sweep *through* faults.

:func:`run_with_recovery` is the driver that closes the resilience
loop.  It runs :class:`~repro.sweep3d.parallel.ParallelSweep` with the
survivability knobs on (bounded receives, health-aware delivery, a
fault hook), and when a mid-iteration fault aborts the run it

1. consults the shared :class:`~repro.resilience.health.FabricHealth`
   ledger for what just died,
2. **re-places** the decomposition around the damage — failure-aware
   (same-CU spares first, :func:`~repro.sweep3d.placement.
   failure_aware_locations`) or the locality-blind baseline
   (:func:`~repro.sweep3d.placement.naive_respawn_locations`),
3. restores from the last checkpoint (iterations are checkpointed
   every ``checkpoint_interval`` sweeps at the PFS-derived write cost)
   and continues, charging the restart and rework to the wall clock.

Everything is a pure function of the fault plan, which is itself a
pure function of its seed (:func:`draw_fault_plan`), so two recovery
runs with the same arguments produce bit-identical wall clocks, retry
counts, and recovery logs — the property the campaign bands in
``BENCH_campaign.json`` rely on.

The measured artifact is :func:`placement_penalty`: the same fault
plan replayed under both placement policies, yielding the iteration-
time penalty of naive re-placement — the number the ISSUE's campaign
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from repro.comm.mpi import Location
from repro.resilience.faults import FaultInjector
from repro.resilience.health import FabricHealth
from repro.resilience.policy import DeliveryPolicy
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep, SweepAborted
from repro.sweep3d.placement import (
    HopAwareFabric,
    failure_aware_locations,
    naive_respawn_locations,
    spe_locations,
)

__all__ = [
    "draw_fault_plan",
    "RecoveryEvent",
    "RecoveryOutcome",
    "run_with_recovery",
    "placement_penalty",
]


def draw_fault_plan(
    seed: int,
    nodes: tuple[int, ...] | list[int],
    mtbf: float,
    horizon: float,
) -> tuple[tuple[float, int], ...]:
    """A seeded, sorted timetable of permanent node failures.

    Per-node exponential inter-arrival draws (one ``random.Random
    (seed)`` stream, consumed in node order), truncated at ``horizon``
    — the same convention as ``FaultInjector.schedule_node_faults``,
    but materialized up front so the *identical* plan can be replayed
    under different placement policies.
    """
    import random

    if not (0 < mtbf < inf and 0 < horizon < inf):
        raise ValueError(
            f"mtbf and horizon must be finite and positive, got {mtbf!r} and {horizon!r}"
        )
    rng = random.Random(seed)
    rate = 1.0 / mtbf
    plan = []
    for node in nodes:
        t = rng.expovariate(rate)
        if t < horizon:
            plan.append((t, node))
    return tuple(sorted(plan))


@dataclass(frozen=True)
class RecoveryEvent:
    """One entry of the recovery log."""

    #: accumulated wall-clock seconds when the event happened
    time: float
    #: ``"fault"``, ``"restart"``, or ``"complete"``
    kind: str
    #: event details (failed node, attempt number, resume iteration...)
    detail: dict = field(default_factory=dict)


@dataclass
class RecoveryOutcome:
    """What a recovered campaign cost."""

    #: the final attempt's sweep result (flux of the completed run)
    result: object
    #: total simulated seconds including rework, checkpoints, restarts
    wallclock: float
    #: useful iterations delivered (== requested iterations)
    iterations: int
    #: runs started (1 = no faults hit)
    attempts: int
    #: faults that actually struck the job
    faults_hit: int
    #: message retransmissions across all attempts
    retries: int
    #: checkpoints written
    checkpoints: int
    #: iterations recomputed after restores
    rework_iterations: int
    #: the event log, in order
    log: list[RecoveryEvent] = field(default_factory=list)

    def slowdown(self, fault_free_wallclock: float) -> float:
        """Wall clock relative to the same run on a healthy machine."""
        if fault_free_wallclock <= 0:
            raise ValueError("fault_free_wallclock must be positive")
        return self.wallclock / fault_free_wallclock


def _place(policy: str, decomp, health, base, machine_nodes):
    if policy == "aware":
        return failure_aware_locations(
            decomp, health, base=base, machine_nodes=machine_nodes
        )
    if policy == "naive":
        return naive_respawn_locations(
            decomp, health, base=base, machine_nodes=machine_nodes
        )
    raise ValueError(f"unknown placement policy {policy!r}")


def run_with_recovery(
    inp: SweepInput,
    decomp: Decomposition2D,
    grind_time: float,
    fault_plan: tuple[tuple[float, int], ...] = (),
    *,
    iterations: int = 8,
    placement: str = "aware",
    fabric=None,
    base_locations: list[Location] | None = None,
    machine_nodes: int = 3060,
    checkpoint_interval: int = 2,
    checkpoint_time: float = 0.0,
    restart_time: float = 0.0,
    recv_timeout: float | None = None,
    max_restarts: int = 8,
) -> RecoveryOutcome:
    """Deliver ``iterations`` sweeps despite the fault plan.

    ``fault_plan`` is absolute-time ``(t, node)`` permanent failures
    (see :func:`draw_fault_plan`); each attempt injects the remaining
    ones into its private simulator at the proper offsets.  A fault on
    a node hosting ranks kills those rank processes; the survivors'
    bounded receives detect the loss and abort the attempt, the driver
    re-places over the health ledger with the ``placement`` policy
    (``"aware"`` or ``"naive"``), restores to the last multiple of
    ``checkpoint_interval`` iterations, and continues.  Checkpoint
    writes cost ``checkpoint_time`` each (derive it from the PFS via
    ``PanasasModel.checkpoint_time`` for the full-machine number) and
    every restart costs ``restart_time``.  ``recv_timeout`` is ``None``
    (twice a fault-free iteration) or a finite number of seconds > 0.

    Fully deterministic: the outcome is a pure function of the
    arguments.  With an empty plan the wall clock equals the plain
    ``ParallelSweep.run`` time plus the checkpoint writes, and with
    ``checkpoint_time=0`` it is *exactly* the seed timeline.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    if not (0 <= checkpoint_time < inf and 0 <= restart_time < inf):
        raise ValueError(
            "checkpoint_time and restart_time must be finite and >= 0, "
            f"got {checkpoint_time!r} and {restart_time!r}"
        )
    health = FabricHealth()
    base = list(base_locations) if base_locations else spe_locations(decomp)
    fabric = fabric if fabric is not None else HopAwareFabric()
    if recv_timeout is None:
        # Generous failure-detection bound: longer than any legitimate
        # wavefront-fill wait (a full iteration), so a timeout always
        # means a dead partner, never a slow pipeline.
        probe = ParallelSweep(
            inp, decomp, grind_time, fabric, locations=base
        ).run(iterations=1)
        recv_timeout = 2.0 * probe.iteration_time

    plan = sorted(fault_plan)
    log: list[RecoveryEvent] = []
    wallclock = 0.0
    done = 0                  # iterations durably delivered (checkpointed)
    computed_total = 0        # iterations computed, incl. lost rework
    checkpoints = 0
    attempts = 0
    faults_hit = 0
    retries = 0
    result = None

    while True:
        attempts += 1
        if attempts > max_restarts + 1:
            raise RuntimeError(
                f"recovery gave up after {max_restarts} restarts "
                f"({done}/{iterations} iterations delivered)"
            )
        locations = _place(placement, decomp, health, base, machine_nodes)
        remaining = iterations - done
        pending = [(t, node) for t, node in plan if t >= wallclock]

        def hook(sim, procs, locs, _pending=pending, _t0=wallclock):
            injector = FaultInjector(sim, health=health)
            by_node: dict[int, list] = {}
            for proc, loc in zip(procs, locs):
                by_node.setdefault(loc.node, []).append(proc)
            for t, node in _pending:
                for proc in by_node.get(node, ()):
                    injector.watch(node, proc)
                injector.fail_node_at(t - _t0, node)

        sweep = ParallelSweep(
            inp, decomp, grind_time, fabric, locations=locations,
            delivery=DeliveryPolicy(health=health),
            recv_timeout=recv_timeout,
            fault_hook=hook,
        )
        try:
            result = sweep.run(iterations=remaining)
        except SweepAborted as abort:
            faults_hit += sum(
                1 for t, _node in pending if t - wallclock <= abort.sim_time
            )
            retries += abort.retries
            computed_total += abort.completed_iterations
            # checkpoints taken during the attempt, before the abort
            new_ckpt = (done + abort.completed_iterations) // checkpoint_interval
            written = new_ckpt - checkpoints
            checkpoints = new_ckpt
            resume = new_ckpt * checkpoint_interval
            wallclock += abort.sim_time + written * checkpoint_time + restart_time
            log.append(RecoveryEvent(
                wallclock, "restart",
                {
                    "attempt": attempts,
                    "failed_nodes": sorted(health.failed_nodes),
                    "resume_iteration": resume,
                    "lost_iterations": done + abort.completed_iterations - resume,
                },
            ))
            done = resume
            continue
        computed_total += remaining
        new_ckpt = iterations // checkpoint_interval
        written = new_ckpt - checkpoints
        checkpoints = new_ckpt
        wallclock += result.iteration_time * remaining + written * checkpoint_time
        retries += result.retries
        done = iterations
        log.append(RecoveryEvent(
            wallclock, "complete",
            {"attempt": attempts, "iterations": iterations},
        ))
        break

    return RecoveryOutcome(
        result=result,
        wallclock=wallclock,
        iterations=iterations,
        attempts=attempts,
        faults_hit=faults_hit,
        retries=retries,
        checkpoints=checkpoints,
        rework_iterations=computed_total - iterations,
        log=log,
    )


def placement_penalty(
    inp: SweepInput,
    decomp: Decomposition2D,
    grind_time: float,
    seed: int,
    *,
    iterations: int = 8,
    mtbf: float | None = None,
    machine_nodes: int = 3060,
    checkpoint_interval: int = 2,
    checkpoint_time: float = 0.0,
    restart_time: float = 0.0,
) -> dict:
    """Failure-aware vs. naive placement under the *identical* fault
    plan — the campaign's headline comparison.

    Draws one seeded fault plan over the job's nodes (``mtbf`` defaults
    to one fault-free runtime, aggressive enough that most seeds hit),
    replays it through :func:`run_with_recovery` under both policies,
    and reports both wall clocks, the penalty ratio, and the fault-free
    baseline.  Same seed in, same numbers out, bit for bit.
    """
    base = spe_locations(decomp)
    fabric = HopAwareFabric()
    clean = ParallelSweep(inp, decomp, grind_time, fabric, locations=base)
    iteration_time = clean.run(iterations=1).iteration_time
    baseline = iteration_time * iterations
    horizon = baseline
    if mtbf is None:
        mtbf = baseline
    job_nodes = tuple(sorted({loc.node for loc in base}))
    plan = draw_fault_plan(seed, job_nodes, mtbf, horizon)
    outcomes = {}
    for policy in ("aware", "naive"):
        outcomes[policy] = run_with_recovery(
            inp, decomp, grind_time, plan,
            iterations=iterations, placement=policy, fabric=fabric,
            base_locations=base, machine_nodes=machine_nodes,
            checkpoint_interval=checkpoint_interval,
            checkpoint_time=checkpoint_time, restart_time=restart_time,
            recv_timeout=2.0 * iteration_time,
        )
    aware, naive = outcomes["aware"], outcomes["naive"]
    return {
        "seed": seed,
        "faults": len(plan),
        "fault_free_s": baseline,
        "aware_s": aware.wallclock,
        "naive_s": naive.wallclock,
        "aware_slowdown": aware.slowdown(baseline),
        "naive_slowdown": naive.slowdown(baseline),
        "penalty": naive.wallclock / aware.wallclock,
        "restarts": aware.attempts - 1,
        "retries": aware.retries,
        "rework_iterations": aware.rework_iterations,
    }
