"""Campaign tenants: named, parameterized, seedable simulation jobs.

A campaign *scenario* is the unit the service executes: a pure
function ``fn(config, seed) -> artifact`` where ``artifact`` is a
JSON-native dict — deterministic per ``(config, seed)`` under the DES
determinism contract, so the content-addressed cache is always safe.

Scenarios declare their full default configuration; :func:`job_config`
merges caller overrides over the defaults and rejects unknown keys, so
every :class:`~repro.campaign.jobs.JobSpec` carries the *complete*
effective config and its digest never depends on hidden defaults.

Registered tenants
------------------
``sweep``
    A small distributed KBA sweep (2x2 ranks by default) with an
    optional lossy delivery policy — the seed feeds the drop RNG, so a
    seed sweep measures the retry/latency distribution.  Artifact:
    phi checksum, iteration time, messages/bytes/retries, and (with
    ``observe``) the deterministic obs summary.
``sweep3060``
    The same sweep at the paper's full machine: 3,060 ranks (60x51),
    one iteration, streaming obs sink — the seed-sweep face of the
    PR 6 full-machine scenario (~seconds of host time per job).
``placement-penalty``
    One seeded fault plan replayed under failure-aware vs naive
    re-placement (:func:`repro.resilience.recovery.placement_penalty`)
    — the ``examples/failure_study.py --campaign`` tenant; defaults
    mirror that study's 64-rank communication-heavy job.
``_selftest``
    A no-simulation harness tenant for exercising the worker pool
    (controlled success / failure / crash-once / sleep); not listed by
    the CLI.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = ["Scenario", "SCENARIOS", "public_scenarios", "job_config", "run_job"]


@dataclass(frozen=True)
class Scenario:
    """One registered tenant: an executor plus its full default config."""

    name: str
    fn: Callable[[dict[str, Any], int], dict[str, Any]]
    defaults: Mapping[str, Any]
    help: str
    #: hidden scenarios (harness tenants) stay out of CLI listings
    public: bool = True


def _phi_sha256(phi) -> str:
    """Content checksum of a flux array (dtype/shape-qualified)."""
    h = hashlib.sha256()
    h.update(str(phi.dtype).encode())
    h.update(repr(phi.shape).encode())
    h.update(phi.tobytes())
    return h.hexdigest()


# -- the sweep tenants -------------------------------------------------------

_SWEEP_DEFAULTS = {
    "it": 2, "jt": 2, "kt": 4, "mk": 2, "mmi": 1,
    "npe_i": 2, "npe_j": 2,
    "grind": 1e-6,
    "iterations": 2,
    "latency": 2e-6,
    "bandwidth": 2e9,
    "drop_probability": 0.0,
    "ack_timeout_us": 50.0,
    "max_retries": 8,
    "observe": False,
}

_SWEEP3060_DEFAULTS = {
    **_SWEEP_DEFAULTS,
    "kt": 8, "mk": 4, "mmi": 2,
    "npe_i": 60, "npe_j": 51,
    "iterations": 1,
    "observe": True,
}


def _sweep(config: dict[str, Any], seed: int) -> dict[str, Any]:
    from repro.comm.mpi import UniformFabric
    from repro.comm.transport import Transport
    from repro.sweep3d.decomposition import Decomposition2D
    from repro.sweep3d.input import SweepInput
    from repro.sweep3d.parallel import ParallelSweep
    from repro.units import US

    delivery = None
    if config["drop_probability"] > 0:
        from repro.resilience.policy import DeliveryPolicy

        delivery = DeliveryPolicy(
            drop_probability=config["drop_probability"],
            ack_timeout=config["ack_timeout_us"] * US,
            max_retries=config["max_retries"],
            seed=seed,
        )
    obs = None
    if config["observe"]:
        from repro.obs.recorder import ObsRecorder
        from repro.obs.sinks import AggregatingSink

        # Streaming sink: full-machine span volume in bounded memory.
        obs = ObsRecorder(sink=AggregatingSink())
    inp = SweepInput(
        it=config["it"], jt=config["jt"], kt=config["kt"],
        mk=config["mk"], mmi=config["mmi"],
    )
    fabric = UniformFabric(
        Transport("ib", latency=config["latency"],
                  bandwidth=config["bandwidth"])
    )
    sweep = ParallelSweep(
        inp, Decomposition2D(config["npe_i"], config["npe_j"]),
        config["grind"], fabric, delivery=delivery, obs=obs,
    )
    result = sweep.run(iterations=config["iterations"])
    artifact = {
        "seed": seed,
        "phi_sha256": _phi_sha256(result.phi),
        "iteration_time": result.iteration_time,
        "iterations": result.iterations,
        "messages": result.messages,
        "bytes": result.bytes_sent,
        "retries": result.retries,
    }
    if obs is not None:
        from repro.obs.export import deterministic_summary

        artifact["obs"] = deterministic_summary(
            obs, result.iteration_time * result.iterations
        )
    return artifact


# -- the failure-study tenant ------------------------------------------------

#: mirrors examples/failure_study.py's campaign job: 64 ranks on two
#: triblades, tiny grind so placement distance dominates
_PLACEMENT_DEFAULTS = {
    "it": 2, "jt": 2, "kt": 8, "mk": 4, "mmi": 3,
    "npe_i": 16, "npe_j": 4,
    "grind": 5e-8,
    "iterations": 4,
}


def _placement_penalty(config: dict[str, Any], seed: int) -> dict[str, Any]:
    from repro.resilience.recovery import placement_penalty
    from repro.sweep3d.decomposition import Decomposition2D
    from repro.sweep3d.input import SweepInput

    inp = SweepInput(
        it=config["it"], jt=config["jt"], kt=config["kt"],
        mk=config["mk"], mmi=config["mmi"],
    )
    report = placement_penalty(
        inp, Decomposition2D(config["npe_i"], config["npe_j"]),
        config["grind"], seed=seed, iterations=config["iterations"],
    )
    return dict(report)


# -- the worker-pool harness tenant ------------------------------------------

_SELFTEST_DEFAULTS = {
    "mode": "ok",       # ok | fail | fail-seeds | crash-once | sleep | count
    "marker": "",       # crash-once/count: sentinel/tally file path
    "sleep_s": 0.0,     # sleep/count: host seconds to stall (timeout testing)
    "fail_seeds": (),   # fail-seeds: seeds that raise (failed-job testing)
    "value": 0,
}


def _selftest(config: dict[str, Any], seed: int) -> dict[str, Any]:
    mode = config["mode"]
    if mode == "ok":
        return {"seed": seed, "value": config["value"]}
    if mode == "fail":
        raise ValueError(f"selftest job failed deliberately (seed {seed})")
    if mode == "fail-seeds":
        if seed in tuple(config["fail_seeds"]):
            raise ValueError(f"selftest job failed deliberately (seed {seed})")
        return {"seed": seed, "value": config["value"]}
    if mode == "crash-once":
        import os
        import pathlib

        marker = pathlib.Path(config["marker"])
        if not marker.exists():
            marker.write_text(str(seed))
            os._exit(3)  # hard worker death, not an exception
        return {"seed": seed, "recovered": True}
    if mode == "sleep":
        import time

        time.sleep(config["sleep_s"])
        return {"seed": seed, "slept_s": config["sleep_s"]}
    if mode == "count":
        # Append one line per execution to the tally file (O_APPEND is
        # atomic for small writes), then optionally stall — proves how
        # many times a job actually ran, e.g. that a sibling's timeout
        # didn't discard this job's in-flight work.
        import os
        import time

        fd = os.open(config["marker"],
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, f"{seed}\n".encode())
        finally:
            os.close(fd)
        if config["sleep_s"]:
            time.sleep(config["sleep_s"])
        return {"seed": seed, "counted": True}
    raise ValueError(f"unknown _selftest mode {mode!r}")


#: name -> registered tenant
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "sweep", _sweep, _SWEEP_DEFAULTS,
            "small distributed KBA sweep; seed feeds the lossy-delivery RNG",
        ),
        Scenario(
            "sweep3060", _sweep, _SWEEP3060_DEFAULTS,
            "full-machine sweep: 3,060 ranks (60x51), streaming obs summary",
        ),
        Scenario(
            "placement-penalty", _placement_penalty, _PLACEMENT_DEFAULTS,
            "seeded fault plan under failure-aware vs naive re-placement",
        ),
        Scenario(
            "_selftest", _selftest, _SELFTEST_DEFAULTS,
            "worker-pool harness tenant (no simulation)", public=False,
        ),
    )
}


def public_scenarios() -> list[Scenario]:
    """The CLI-visible tenants, name-sorted."""
    return [SCENARIOS[n] for n in sorted(SCENARIOS) if SCENARIOS[n].public]


def job_config(
    scenario: str, overrides: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """The complete effective config: defaults + ``overrides``.

    Unknown override keys raise ``ValueError`` (a silently ignored typo
    would cache the wrong artifact under an honest-looking digest).
    """
    try:
        defn = SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; "
            f"choose from {', '.join(sorted(SCENARIOS))}"
        ) from None
    config = dict(defn.defaults)
    if overrides:
        unknown = sorted(set(overrides) - set(config))
        if unknown:
            raise ValueError(
                f"unknown config key(s) for scenario {scenario!r}: "
                f"{', '.join(unknown)}"
            )
        config.update(overrides)
    return config


def run_job(spec) -> dict[str, Any]:
    """Execute one :class:`~repro.campaign.jobs.JobSpec`; returns its
    artifact.  The spec's config must already be complete (built via
    :func:`job_config` / :func:`repro.campaign.service.grid`)."""
    defn = SCENARIOS.get(spec.scenario)
    if defn is None:
        raise ValueError(f"unknown scenario {spec.scenario!r}")
    config = job_config(spec.scenario, spec.config)
    return defn.fn(config, spec.seed)
