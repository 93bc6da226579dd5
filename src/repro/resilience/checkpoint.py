"""Checkpoint/restart cost model (Young's and Daly's optimal interval).

For a job with failure-free solve time ``T_s`` on a machine whose
aggregate mean time between failures is ``M``, writing a checkpoint
costs ``delta`` seconds and recovering from a failure costs ``R``
seconds plus the rework since the last checkpoint.  Daly's first-order
model (J. T. Daly, *A higher order estimate of the optimum checkpoint
interval for restart dumps*, FGCS 2006) gives the expected wall clock
when checkpointing every ``tau`` seconds of useful work:

    T_w(tau) = M * exp(R / M) * (exp((tau + delta) / M) - 1) * T_s / tau

which is minimized near Young's classic ``tau = sqrt(2 * delta * M)``;
Daly's higher-order expansion refines it.  The expected *slowdown*
``T_w / T_s`` is independent of ``T_s`` — it is a property of the
machine (MTBF) and the checkpoint system alone, which is what makes the
MTBF -> slowdown table of ``python -m repro resilience`` a machine
characteristic rather than a per-job number.

:func:`sweep_failure_study` applies the model to the paper's
full-machine Sweep3D run: iteration times come from the DES-validated
wavefront model (:mod:`repro.sweep3d.scaling`), node MTBFs are swept
over plausible hardware qualities, and the output is the expected
wall clock of a long sweep campaign on the 3,060-node machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CheckpointModel", "sweep_failure_study"]

#: hours -> seconds
_HOUR = 3600.0


@dataclass(frozen=True)
class CheckpointModel:
    """Young/Daly checkpoint/restart economics for one machine.

    Parameters
    ----------
    mtbf:
        Aggregate (whole-system) mean time between failures, seconds.
    checkpoint_time:
        ``delta`` — seconds to write one checkpoint.
    restart_time:
        ``R`` — seconds to restore state after a failure.
    """

    mtbf: float
    checkpoint_time: float
    restart_time: float = 0.0

    def __post_init__(self):
        if not 0 < self.mtbf < math.inf:
            raise ValueError(f"mtbf must be finite and positive, got {self.mtbf!r}")
        if not 0 < self.checkpoint_time < math.inf:
            raise ValueError(
                "checkpoint_time must be finite and positive, "
                f"got {self.checkpoint_time!r}"
            )
        if not 0 <= self.restart_time < math.inf:
            raise ValueError(
                f"restart_time must be finite and >= 0, got {self.restart_time!r}"
            )

    @classmethod
    def from_node_mtbf(
        cls,
        node_mtbf: float,
        nodes: int,
        checkpoint_time: float,
        restart_time: float = 0.0,
        burst_size: int = 1,
    ) -> "CheckpointModel":
        """Aggregate model of ``nodes`` components failing independently:
        the system MTBF is ``node_mtbf / nodes``.

        ``burst_size`` models correlated failures sharing a power
        domain (CU = 180, triblade pair = 2): nodes still fail at the
        per-node rate, but in bursts that take ``burst_size`` of them
        down per *event* — and checkpoint/restart pays per event, not
        per node, so the interrupting-event MTBF is ``node_mtbf *
        burst_size / nodes`` and the Daly optimum stretches by roughly
        ``sqrt(burst_size)``.
        """
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        if burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        return cls(
            mtbf=node_mtbf * burst_size / nodes,
            checkpoint_time=checkpoint_time,
            restart_time=restart_time,
        )

    # -- optimal intervals --------------------------------------------------
    def young_interval(self) -> float:
        """Young's first-order optimum: ``sqrt(2 * delta * M)``."""
        return math.sqrt(2.0 * self.checkpoint_time * self.mtbf)

    def daly_interval(self) -> float:
        """Daly's higher-order optimum.

        For ``delta < 2M``:

            tau = sqrt(2 delta M) * [1 + 1/3 sqrt(delta / 2M)
                                       + 1/9 (delta / 2M)] - delta

        and ``tau = M`` once checkpoints cost more than the machine
        stays up (``delta >= 2M`` — checkpointing can no longer help).
        """
        delta, M = self.checkpoint_time, self.mtbf
        if delta >= 2.0 * M:
            return M
        x = delta / (2.0 * M)
        return math.sqrt(2.0 * delta * M) * (
            1.0 + math.sqrt(x) / 3.0 + x / 9.0
        ) - delta

    # -- expected cost ------------------------------------------------------
    def expected_slowdown(self, interval: float | None = None) -> float:
        """Expected wall clock per unit of useful work (>= 1)."""
        tau = self.daly_interval() if interval is None else float(interval)
        if not 0 < tau < math.inf:
            raise ValueError(
                f"checkpoint interval must be finite and positive, got {tau!r}"
            )
        delta, M, R = self.checkpoint_time, self.mtbf, self.restart_time
        return (M / tau) * math.exp(R / M) * math.expm1((tau + delta) / M)

    def failure_free_overhead(self, interval: float | None = None) -> float:
        """Checkpoint tax alone (no failures): ``delta / tau``."""
        tau = self.daly_interval() if interval is None else float(interval)
        if not 0 < tau < math.inf:
            raise ValueError(
                f"checkpoint interval must be finite and positive, got {tau!r}"
            )
        return self.checkpoint_time / tau


def sweep_failure_study(
    node_mtbf_hours: tuple[float, ...] = (8760.0, 43800.0, 87600.0, 219000.0),
    checkpoint_time: float | None = None,
    restart_time: float = 300.0,
    nodes: int = 3060,
    campaign_hours: float = 24.0,
    config: str = "cell_measured",
    burst_size: int = 1,
) -> dict:
    """Expected cost of a full-machine sweep campaign under failures.

    For each per-node MTBF (default sweep: 1 / 5 / 10 / 25 years) the
    study aggregates to the system MTBF over ``nodes``, computes the
    Daly-optimal checkpoint interval, and prices a ``campaign_hours``
    block of sweep iterations — iteration time taken from the
    DES-validated wavefront model at full machine scale.

    ``checkpoint_time`` defaults to the Panasas PFS model's time to
    write half of system memory through the 204 I/O nodes (pass a
    scalar to override); ``burst_size > 1`` prices correlated power-
    domain failures (see :meth:`CheckpointModel.from_node_mtbf`) — the
    ``python -m repro resilience-correlated`` artifact.

    Returns a JSON-friendly dict (the ``python -m repro resilience``
    artifact): per-MTBF rows plus the underlying sweep numbers.
    """
    from repro.sweep3d.scaling import ScalingStudy

    if checkpoint_time is None:
        from repro.io.panasas import PanasasModel

        checkpoint_time = PanasasModel().checkpoint_time(0.5)
    point = ScalingStudy().point(nodes, config)
    iteration_time = point.iteration_time
    solve_time = campaign_hours * _HOUR
    iterations = solve_time / iteration_time
    rows = []
    for node_mtbf_h in node_mtbf_hours:
        model = CheckpointModel.from_node_mtbf(
            node_mtbf=node_mtbf_h * _HOUR,
            nodes=nodes,
            checkpoint_time=checkpoint_time,
            restart_time=restart_time,
            burst_size=burst_size,
        )
        tau = model.daly_interval()
        slowdown = model.expected_slowdown(tau)
        rows.append(
            {
                "node_mtbf_hours": node_mtbf_h,
                "system_mtbf_hours": model.mtbf / _HOUR,
                "daly_interval_s": tau,
                "young_interval_s": model.young_interval(),
                "expected_slowdown": slowdown,
                "expected_wallclock_hours": slowdown * campaign_hours,
                "failure_free_overhead": model.failure_free_overhead(tau),
            }
        )
    return {
        "config": config,
        "nodes": nodes,
        "ranks": point.ranks,
        "iteration_time_s": iteration_time,
        "campaign_hours": campaign_hours,
        "iterations": iterations,
        "checkpoint_time_s": checkpoint_time,
        "restart_time_s": restart_time,
        "burst_size": burst_size,
        "rows": rows,
    }
