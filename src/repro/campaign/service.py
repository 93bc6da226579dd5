"""Simulation-as-a-service: submit a campaign, stream progress, get a
report — durably.

:class:`CampaignService` is the front door the CLI, the failure-study
example, and the nightly CI client all share.  ``run()`` takes a list
of :class:`~repro.campaign.jobs.JobSpec`\\ s (build grids with
:func:`grid`), consults the content-addressed
:class:`~repro.campaign.store.ArtifactStore` first, fans the misses
over the :mod:`~repro.campaign.workers` pool, caches fresh artifacts
*at completion time*, and returns a :class:`CampaignReport` whose job
outcomes are in submission order — independent of worker count and
completion order.

Durability
----------
Pass ``journal=<path>`` (requires a store) and every job-state
transition is appended to a :class:`~repro.campaign.journal.Journal`
write-ahead log as it happens.  If the campaign process dies,
:meth:`CampaignService.resume` rebuilds the service from the journal
header and runs the campaign again from the journal's per-job states:
decided jobs are restored (artifacts come back from the store by
recorded hash — **done jobs are never recomputed**), jobs that were in
flight re-run, and the rest run as in a fresh campaign.  The resulting
report is byte-identical to the report an uninterrupted run would have
produced, ``store_stats`` included: the report counts its cache hits
and misses from its own outcomes.

Disk-full on a store or journal write is absorbed (counted, never
fatal): the report is built in memory and the journal simply
under-records, costing at most a recompute on resume.

Progress streaming
------------------
Every state change emits a :class:`ProgressEvent` (``queued`` /
``cached-hit`` / ``restored`` / ``started`` / ``finished`` /
``failed``) carrying the job's digest, scenario, and seed, plus a
snapshot of the service's own obs counters (``campaign.*`` — queued,
cached_hit, executed, failed, crash_attempts, timeouts, restored,
restore_misses, resumed, journal/store write errors, and folded
``campaign.chaos.*`` fault-ledger totals) via
:func:`repro.obs.export.counter_snapshot`, so a consumer can render a
live gauge without holding any other state.  The final counter totals
are on :attr:`CampaignReport.counters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.campaign import chaos
from repro.campaign.jobs import (
    DONE,
    FAILED,
    PENDING,
    JobOutcome,
    JobSpec,
    default_code_version,
)
from repro.campaign.journal import JobState, Journal, read_journal
from repro.campaign.scenarios import job_config
from repro.campaign.store import ArtifactStore
from repro.campaign.workers import check_pool_args, run_specs

__all__ = ["ProgressEvent", "CampaignReport", "CampaignService", "grid"]


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed campaign state change."""

    event: str    # queued | cached-hit | restored | started | finished | failed
    index: int                  # submission position of the job
    digest: str                 # the job's full content address
    scenario: str
    seed: int
    detail: Mapping[str, Any] = field(default_factory=dict)
    #: obs counter snapshot at emission time (campaign.* counters)
    counters: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-lines wire form."""
        return {
            "event": self.event,
            "index": self.index,
            "job": self.digest[:12],
            "digest": self.digest,
            "scenario": self.scenario,
            "seed": self.seed,
            "detail": dict(self.detail),
            "counters": dict(self.counters),
        }


@dataclass
class CampaignReport:
    """Everything a campaign produced, in submission order."""

    outcomes: list[JobOutcome]
    submitted: int = 0
    cached_hits: int = 0
    executed: int = 0
    failed: int = 0
    store_stats: dict[str, int] | None = None
    #: final obs counter totals (campaign.* incl. chaos ledger folds);
    #: deliberately NOT part of to_dict — a resumed run's counters
    #: differ from an uninterrupted run's even when the report is
    #: byte-identical
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        return self.cached_hits / self.submitted if self.submitted else 0.0

    def artifacts(self) -> list[dict | None]:
        """Per-job artifacts in submission order (``None`` for failures)."""
        return [o.artifact for o in self.outcomes]

    def to_dict(self) -> dict[str, Any]:
        """Deterministic JSON-able report (the CI upload artifact)."""
        return {
            "submitted": self.submitted,
            "cached_hits": self.cached_hits,
            "executed": self.executed,
            "failed": self.failed,
            "cache_hit_rate": self.cache_hit_rate,
            "store": self.store_stats,
            "jobs": [o.to_dict() for o in self.outcomes],
        }


def grid(
    scenario: str,
    seeds: int | Iterable[int],
    config: Mapping[str, Any] | None = None,
    *,
    code_version: str | None = None,
) -> list[JobSpec]:
    """A campaign as a seed sweep: one spec per seed, all sharing the
    scenario's complete effective config (defaults + ``config``
    overrides; unknown keys raise).  ``seeds`` is a count (``range``)
    or an explicit iterable of seed values."""
    full = job_config(scenario, config)
    seed_values = range(seeds) if isinstance(seeds, int) else seeds
    cv = code_version if code_version is not None else default_code_version()
    return [
        JobSpec(scenario=scenario, config=full, seed=int(s), code_version=cv)
        for s in seed_values
    ]


class CampaignService:
    """Run campaigns against an optional artifact cache.

    Parameters
    ----------
    store:
        Artifact cache (or a path to open one at); ``None`` disables
        caching — every job executes.
    workers, timeout, max_retries:
        Pool knobs, passed through to
        :func:`repro.campaign.workers.run_specs`.  Checked here, so a
        bad value fails before any job runs or any cache is read:
        ``workers >= 1``, ``max_retries >= 0``, and ``timeout`` (host
        seconds) positive.  ``workers=1`` is a pool of one.
    """

    def __init__(
        self,
        store: ArtifactStore | str | None = None,
        *,
        workers: int = 1,
        timeout: float | None = None,
        max_retries: int = 1,
    ):
        check_pool_args(workers, timeout, max_retries)
        if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
            store = ArtifactStore(store)
        self.store = store
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries

    # -- public entry points -------------------------------------------------

    def run(
        self,
        specs: Sequence[JobSpec],
        progress: Callable[[ProgressEvent], None] | None = None,
        *,
        journal: str | None = None,
    ) -> CampaignReport:
        """Execute a campaign; see the module docstring for the flow.

        ``journal`` names a write-ahead journal file to create for this
        run (truncating any prior one); it requires a store — the
        journal records artifact hashes, the store holds the bytes.
        """
        jr = None
        if journal is not None:
            if self.store is None:
                raise ValueError(
                    "journaling requires an artifact store: the journal "
                    "records artifact hashes, the store holds the bytes"
                )
            # the header options are what `resume` rebuilds the pool from
            jr = Journal.create(
                journal, specs, store_root=str(self.store.root),
                options={"workers": self.workers, "timeout": self.timeout,
                         "max_retries": self.max_retries},
            )
        return self._run(specs, [JobState()] * len(specs), progress, jr)

    @classmethod
    def resume(
        cls,
        journal: str,
        progress: Callable[[ProgressEvent], None] | None = None,
    ) -> CampaignReport:
        """Finish a journaled campaign after a crash.

        Rebuilds the service from the journal header (same store, same
        pool knobs), reopens the journal at the end of its trusted
        prefix, and runs the campaign from each job's journaled state
        (see :meth:`_run`).  The returned report is byte-identical to an
        uninterrupted run's.
        """
        from repro.obs.recorder import ObsRecorder

        state = read_journal(journal)
        if state.store_root is None:
            raise ValueError(f"journal {journal!r} records no store root")
        opts = state.options
        service = cls(
            store=state.store_root,
            workers=int(opts.get("workers", 1)),
            timeout=opts.get("timeout"),
            max_retries=int(opts.get("max_retries", 1)),
        )
        rec = ObsRecorder()
        rec.count("campaign.resumed")
        jr = Journal.reopen(journal, state)
        prior = [state.job(i) for i in range(len(state.specs))]
        return service._run(state.specs, prior, progress, jr, rec)

    # -- internals -----------------------------------------------------------

    def _run(
        self,
        specs: Sequence[JobSpec],
        prior: Sequence[JobState],
        progress: Callable[[ProgressEvent], None] | None,
        journal: Journal | None = None,
        rec=None,
    ) -> CampaignReport:
        """The one run loop.  ``prior[i]`` is job ``i``'s journaled
        state, and decides what the run does with it:

        * pending — probe the cache; a miss runs the job;
        * running (in flight at a crash) — re-run at its recorded
          attempt, without a probe: its artifact may have landed before
          the crash, and serving it would misreport a cache hit;
        * done — restore the artifact from the store; if it is gone or
          corrupt, re-run at the recorded attempt;
        * failed — restore the recorded error.
        """
        from repro.obs.export import counter_snapshot
        from repro.obs.recorder import ObsRecorder

        if rec is None:
            rec = ObsRecorder()

        def emit(event: str, index: int, spec: JobSpec,
                 detail: Mapping[str, Any] | None = None) -> None:
            if progress is not None:
                progress(ProgressEvent(
                    event=event, index=index, digest=digests[index],
                    scenario=spec.scenario, seed=spec.seed,
                    detail=dict(detail or {}),
                    counters=counter_snapshot(rec, prefix="campaign."),
                ))

        def jwrite(method: str, *args: Any) -> None:
            # A journal write failure (injected or real disk-full) is
            # absorbed: the run continues un-journaled for that record,
            # costing at most a recompute on resume.
            if journal is None:
                return
            try:
                getattr(journal, method)(*args)
            except OSError:
                rec.count("campaign.journal.write_errors")

        digests = [spec.digest for spec in specs]
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        to_run: list[int] = []
        attempts: list[int] = []
        for i, (spec, job) in enumerate(zip(specs, prior)):
            rec.count("campaign.queued")
            emit("queued", i, spec)
            artifact = sha = None
            if job.state in (PENDING, DONE) and self.store is not None:
                artifact, sha = self.store.get(spec) or (None, None)
            if job.state == PENDING and artifact is not None:
                rec.count("campaign.cached_hit")
                outcomes[i] = JobOutcome(spec, digests[i], DONE, cached=True,
                                         artifact=artifact,
                                         artifact_sha256=sha)
                jwrite("record_cached_hit", i, sha)
                emit("cached-hit", i, spec, {"artifact_sha256": sha})
                continue
            if job.state == FAILED or artifact is not None:
                rec.count("campaign.restored")
                outcomes[i] = JobOutcome(
                    spec, digests[i], job.state, cached=job.cached,
                    attempts=job.attempts, error=job.error,
                    artifact=artifact, artifact_sha256=job.artifact_sha256,
                )
                emit("restored", i, spec, {"state": job.state,
                                           "cached": job.cached,
                                           "attempts": job.attempts})
                continue
            if job.state == DONE:
                rec.count("campaign.restore_misses")
            to_run.append(i)
            attempts.append(max(1, job.attempts))

        def on_result(k: int, out: JobOutcome) -> None:
            # Fires at resolution time (completion order): persist the
            # artifact and journal the terminal state as soon as they
            # exist — a crash after this point never recomputes the job.
            index = to_run[k]
            if out.state == FAILED:
                jwrite("record_failed", index, out.attempts, out.error)
                return
            if self.store is not None:
                try:
                    self.store.put(out.spec, out.artifact,
                                   out.artifact_sha256)
                except OSError:
                    rec.count("campaign.store.put_errors")
            jwrite("record_finished", index, out.attempts,
                   out.artifact_sha256)

        def relay(event: str, k: int, spec: JobSpec, detail: dict) -> None:
            # Counters move with the event, so the snapshot a consumer
            # sees on a "finished" line already includes that finish.
            index = to_run[k]
            if event == "started":
                jwrite("record_started", index, detail["attempt"])
                if detail["attempt"] > 1:
                    rec.count("campaign.crash_attempts")
            elif event == "finished":
                rec.count("campaign.executed")
            elif event == "failed":
                rec.count("campaign.failed")
                if detail.get("timeout"):
                    rec.count("campaign.timeouts")
            emit(event, index, spec, detail)

        ran = run_specs([specs[i] for i in to_run], workers=self.workers,
                        timeout=self.timeout, max_retries=self.max_retries,
                        progress=relay, on_result=on_result,
                        initial_attempts=attempts)
        for index, out in zip(to_run, ran):
            outcomes[index] = out

        hits = sum(1 for o in outcomes if o.cached)
        report = CampaignReport(
            outcomes=outcomes,
            submitted=len(specs),
            cached_hits=hits,
            executed=sum(
                1 for o in outcomes if o.state == DONE and not o.cached
            ),
            failed=sum(1 for o in outcomes if o.state == FAILED),
            store_stats=None if self.store is None else {
                "hits": hits, "misses": len(specs) - hits,
                **self.store.stats(),
            },
        )
        jwrite("record_end", {
            "submitted": report.submitted,
            "cached_hits": report.cached_hits,
            "executed": report.executed,
            "failed": report.failed,
        })
        if journal is not None:
            journal.close()
        plan = chaos.active_plan()
        if plan is not None and plan.ledger is not None:
            for name, total in chaos.ledger_counts(plan.ledger).items():
                rec.count(name, float(total))
        report.counters = counter_snapshot(rec, prefix="campaign.")
        return report
