"""Campaign service: simulation-as-a-service with a worker pool, job
queue, content-addressed artifact cache, and a write-ahead journal.

Every DES run in this repository is a deterministic, single-threaded
function of ``(scenario, config, seed, code_version)`` — which makes
campaigns of parameterized runs (the paper's scaling curves, the
failure-economics sweeps) embarrassingly parallel *and* perfectly
cacheable.  This package turns that property into a service layer
that is also **durable**: a campaign survives worker crashes, driver
crashes, cache corruption, and disk-full, and a resumed campaign
produces the identical report an uninterrupted one would have.

* :mod:`~repro.campaign.jobs` — frozen :class:`JobSpec` with a
  canonical-JSON SHA-256 content address, and :class:`JobOutcome`, the
  one record of a job's final state;
* :mod:`~repro.campaign.store` — the on-disk, content-addressed,
  self-verifying, self-healing :class:`ArtifactStore` (fsync'd atomic
  writes);
* :mod:`~repro.campaign.scenarios` — registered tenants
  (``sweep``, ``sweep3060``, ``placement-penalty``);
* :mod:`~repro.campaign.workers` — the process pool (``workers=1`` is
  a pool of one): long-lived workers with one pipe each, so a dead
  worker is blamed for exactly the job it held; per-job timeouts,
  seeded backoff retries, outcomes in submission order;
* :mod:`~repro.campaign.journal` — the append-only :class:`Journal`
  of job-state transitions and its reader;
* :mod:`~repro.campaign.service` — :class:`CampaignService`: one run
  loop over each job's prior state (cache-first execution,
  completion-time persistence; :meth:`~CampaignService.resume` passes
  the journal's states), streamed
  :class:`ProgressEvent`\\ s with obs counter snapshots,
  :class:`CampaignReport` aggregation;
* :mod:`~repro.campaign.chaos` — the real-fault injection harness
  (worker/driver ``SIGKILL``, disk-full, cache corruption) behind
  ``tests/test_chaos.py``;
* :mod:`~repro.campaign.cli` — ``python -m repro campaign``
  (``--journal`` / ``--resume``).

See ``docs/CAMPAIGN.md`` for the job model, cache-key rules, progress
stream format, the durability model, and tenancy examples.
"""

from repro.campaign.chaos import ChaosPlan, draw_plan
from repro.campaign.jobs import (
    DONE,
    FAILED,
    JOB_STATES,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    JobOutcome,
    JobSpec,
    canonical_json,
    content_digest,
    default_code_version,
)
from repro.campaign.journal import Journal, JournalState, read_journal
from repro.campaign.scenarios import SCENARIOS, Scenario, job_config, run_job
from repro.campaign.service import (
    CampaignReport,
    CampaignService,
    ProgressEvent,
    grid,
)
from repro.campaign.store import ArtifactStore
from repro.campaign.workers import run_specs

__all__ = [
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobSpec",
    "JobOutcome",
    "canonical_json",
    "content_digest",
    "default_code_version",
    "ArtifactStore",
    "Scenario",
    "SCENARIOS",
    "job_config",
    "run_job",
    "run_specs",
    "Journal",
    "JournalState",
    "read_journal",
    "ChaosPlan",
    "draw_plan",
    "ProgressEvent",
    "CampaignReport",
    "CampaignService",
    "grid",
]
