"""Chaos-harness tests: real faults against the durable campaign stack.

Every fault here is *real* — workers die by ``SIGKILL``, the campaign
driver is killed at journal-record boundaries and resumed in a fresh
process tree, cache files are truncated and bit-flipped on disk, and
store/journal writes raise genuine ``ENOSPC`` — and every test holds
the same three invariants from the durability model
(``docs/CAMPAIGN.md``):

1. **No job is lost**: every submitted spec reaches a terminal state.
2. **No job exceeds its retry budget**: ``attempts <= 1 + max_retries``.
3. **Surviving artifacts are byte-identical** to a fault-free
   reference run, and the chaos fault ledger accounts for every
   injected fault via the ``campaign.chaos.*`` counters.

Scale knobs (the nightly ``chaos-campaign`` CI job raises both):

* ``REPRO_CHAOS_FULL=1`` — kill/resume at *every* journal-record
  boundary instead of the tier-1 smoke subset;
* ``REPRO_CHAOS_SEEDS=N`` — N seeded multi-fault campaigns (default 3);
* ``REPRO_CHAOS_REPORT=path`` — write the seeded suite's summary JSON
  (the CI upload artifact).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import time

import pytest

from repro.campaign import (
    CampaignService,
    grid,
    read_journal,
)
from repro.campaign import chaos

N_JOBS = 16  # the determinism-campaign width the ISSUE pins

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="chaos harness needs os.fork"
)


def _specs(n=N_JOBS, code_version="chaos-test", **overrides):
    return grid("_selftest", n, {"mode": "ok", **overrides},
                code_version=code_version)


def _cache_bytes(root) -> dict[str, bytes]:
    """Every artifact file under a store root, keyed by relative path."""
    root = pathlib.Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.glob("??/*.json"))
    }


def _live_group_members(pgid: int) -> list[int] | None:
    """Pids of live (non-zombie) processes in group ``pgid``, or
    ``None`` where there is no ``/proc`` to read."""
    proc = pathlib.Path("/proc")
    if not (proc / "self" / "stat").exists():
        return None
    live = []
    for stat in proc.glob("[0-9]*/stat"):
        try:
            # fields after "(comm)": state ppid pgrp ...
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            live.append(int(stat.parent.name))
    return live


def _fork_and_wait(child) -> "os.waitpid result status":
    """Run ``child()`` in a forked process; returns the wait status.

    The child exits via ``os._exit`` always: 0 if ``child`` returned,
    42 if it raised (the exception is printed for the test log).  The
    child leads its own process group.  After the wait, every process
    left in that group (pool workers orphaned by a chaos campaign kill)
    must exit on its own within 5 s; the group is SIGKILLed after the
    check either way, so none can outlive the test (they'd hold
    pytest's capture pipes open).
    """
    pid = os.fork()
    if pid == 0:
        os.setpgid(0, 0)
        code = 42
        try:
            child()
            code = 0
        except BaseException as exc:  # noqa: BLE001 — report, then _exit
            import traceback

            traceback.print_exc()
            print(f"chaos child failed: {exc!r}", flush=True)
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    deadline = time.monotonic() + 5.0
    live = _live_group_members(pid)
    while live and time.monotonic() < deadline:
        time.sleep(0.05)
        live = _live_group_members(pid)
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    assert not live, f"processes {live} outlived the campaign by 5 s"
    return status


def _assert_sigkilled(status):
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, (
        f"expected the campaign process to die by SIGKILL, got {status=}"
    )


# -- kill the campaign at every journal boundary and resume ------------------


def _boundaries(total: int) -> list[int]:
    if os.environ.get("REPRO_CHAOS_FULL"):
        return list(range(1, total + 1))
    # tier-1 smoke subset: first boundaries (header, first job), a
    # mid-campaign spread, and the last two (final job, end record)
    picks = {1, 2, 3, 4, total // 3, total // 2, 2 * total // 3,
             total - 1, total}
    return sorted(p for p in picks if 1 <= p <= total)


def test_kill_at_every_journal_boundary_resume_matches(tmp_path):
    """Satellite 4: SIGKILL the driver right after each journal record
    lands, resume in a fresh process, and require the resumed report
    *and* the cache bytes to match the uninterrupted run exactly."""
    specs = _specs()
    ref_dir = tmp_path / "ref"
    ref = CampaignService(ref_dir / "cache", workers=1).run(
        specs, journal=str(ref_dir / "journal")
    )
    ref_json = json.dumps(ref.to_dict(), sort_keys=True)
    ref_bytes = _cache_bytes(ref_dir / "cache")
    total = read_journal(ref_dir / "journal").records
    assert total == 2 * N_JOBS + 2  # header + (started+finished)/job + end

    for n in _boundaries(total):
        work = tmp_path / f"kill-{n:03d}"
        work.mkdir()
        cache, journal = work / "cache", work / "journal"

        def child():
            chaos.install(
                chaos.ChaosPlan(kill_campaign_after_records=n,
                                ledger=str(work / "ledger")),
                work / "plan.json",
            )
            CampaignService(cache, workers=1).run(specs, journal=str(journal))

        _assert_sigkilled(_fork_and_wait(child))
        # the fault ledger recorded the kill before it landed
        assert chaos.ledger_counts(work / "ledger") == {
            "campaign.chaos.campaign_kill": 1
        }

        resumed = CampaignService.resume(str(journal))
        assert json.dumps(resumed.to_dict(), sort_keys=True) == ref_json, (
            f"resume after kill at journal record {n} diverged"
        )
        assert _cache_bytes(cache) == ref_bytes
        assert resumed.counters["campaign.resumed"] == 1
        assert read_journal(journal).complete


def test_campaign_kill_and_resume_with_worker_pool(tmp_path):
    """Driver death mid-flight with a real worker pool: in-flight jobs
    re-queue and the resumed report matches the uninterrupted one."""
    specs = _specs(8, code_version="chaos-pool")
    ref = CampaignService(tmp_path / "ref", workers=2).run(specs)
    cache, journal = tmp_path / "cache", tmp_path / "journal"

    def child():
        chaos.install(
            chaos.ChaosPlan(kill_campaign_after_records=7),
            tmp_path / "plan.json",
        )
        CampaignService(cache, workers=2).run(specs, journal=str(journal))

    _assert_sigkilled(_fork_and_wait(child))
    partial = read_journal(journal)
    assert not partial.complete

    resumed = CampaignService.resume(str(journal))
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        ref.to_dict(), sort_keys=True
    )


# -- workers really die by SIGKILL -------------------------------------------


def test_worker_sigkill_chaos_converges_and_accounts(tmp_path):
    """A drawn worker-kill plan: every job still completes within its
    retry budget, artifacts are byte-identical to the fault-free
    reference, and the counters account for every injected kill."""
    specs = _specs(10, code_version="chaos-kill")
    ref_cache = tmp_path / "ref"
    CampaignService(ref_cache, workers=3).run(specs)

    max_kills = 2
    plan = chaos.draw_plan(
        1, [s.digest for s in specs], kill_probability=0.45,
        max_kills_per_job=max_kills, ledger=str(tmp_path / "ledger"),
    )
    assert plan.kill_before or plan.kill_after, "plan drew no kills"
    chaos.install(plan, tmp_path / "plan.json")
    try:
        report = CampaignService(
            tmp_path / "cache", workers=3, max_retries=max_kills,
        ).run(specs, journal=str(tmp_path / "journal"))
    finally:
        chaos.clear()

    assert len(report.outcomes) == len(specs)           # no job lost
    assert all(o.state == "done" for o in report.outcomes)
    assert all(o.attempts <= 1 + max_kills for o in report.outcomes)
    assert _cache_bytes(tmp_path / "cache") == _cache_bytes(ref_cache)
    ledger = chaos.ledger_counts(tmp_path / "ledger")
    assert ledger["campaign.chaos.worker_kill"] >= len(
        [a for v in plan.kill_before.values() for a in v]
    )
    # every ledgered fault is folded into the report counters
    assert report.counters["campaign.chaos.worker_kill"] == (
        ledger["campaign.chaos.worker_kill"]
    )


def test_worker_kill_retries_exhausted_fails_cleanly(tmp_path):
    """A job killed on every allowed attempt fails with a structured
    error instead of hanging or crashing the campaign."""
    specs = _specs(3, code_version="chaos-exhaust")
    doomed = specs[1].digest[:12]
    plan = chaos.ChaosPlan(kill_before={doomed: [1, 2]})
    chaos.install(plan, tmp_path / "plan.json")
    try:
        report = CampaignService(
            tmp_path / "cache", workers=2, max_retries=1,
        ).run(specs)
    finally:
        chaos.clear()
    by_digest = {o.digest[:12]: o for o in report.outcomes}
    assert by_digest[doomed].state == "failed"
    assert "worker process died" in by_digest[doomed].error
    assert by_digest[doomed].attempts == 2
    others = [o for o in report.outcomes if o.digest[:12] != doomed]
    assert all(o.state == "done" for o in others)


# -- cache corruption: truncation and bit-flips -------------------------------


def test_cache_corruption_detected_and_healed(tmp_path):
    """Truncated and bit-flipped cache entries are detected as corrupt,
    recomputed, healed on disk, and the rerun report matches."""
    specs = _specs(12, code_version="chaos-corrupt")
    cache = tmp_path / "cache"
    ref = CampaignService(cache, workers=1).run(specs)
    clean = _cache_bytes(cache)

    damaged = chaos.corrupt_store(cache, seed=7,
                                  ledger=str(tmp_path / "ledger"))
    assert damaged, "corruption pass damaged nothing"
    assert _cache_bytes(cache) != clean

    service = CampaignService(cache, workers=1)
    rerun = service.run(specs)
    assert all(o.state == "done" for o in rerun.outcomes)
    assert rerun.artifacts() == ref.artifacts()
    assert rerun.cached_hits == len(specs) - len(damaged)
    assert rerun.executed == len(damaged)
    # counters: every damaged entry was detected and healed
    stats = service.store.stats()
    assert stats["corrupt"] == len(damaged)
    assert stats["healed"] == len(damaged)
    assert stats["hits"] == len(specs) - len(damaged)
    # the store is fully repaired: bytes match the clean run again
    assert _cache_bytes(cache) == clean
    assert chaos.ledger_counts(tmp_path / "ledger") == {
        "campaign.chaos.corruption": len(damaged)
    }


def test_corrupt_store_is_deterministic_per_seed(tmp_path):
    specs = _specs(8, code_version="chaos-corrupt-det")
    for name in ("a", "b"):
        CampaignService(tmp_path / name, workers=1).run(specs)
    da = chaos.corrupt_store(tmp_path / "a", seed=3)
    db = chaos.corrupt_store(tmp_path / "b", seed=3)
    assert [p.name for p in da] == [p.name for p in db]
    assert _cache_bytes(tmp_path / "a") == _cache_bytes(tmp_path / "b")


# -- disk-full ----------------------------------------------------------------


def test_store_disk_full_is_absorbed_and_healed_on_rerun(tmp_path):
    """ENOSPC on a cache write never fails the job: the artifact stays
    in the report, the write error is counted, and a rerun recomputes
    (then caches) the missing entry."""
    specs = _specs(4, code_version="chaos-enospc")
    plan = chaos.ChaosPlan(store_enospc_writes=[2],
                           ledger=str(tmp_path / "ledger"))
    chaos.install(plan, tmp_path / "plan.json")
    try:
        report = CampaignService(tmp_path / "cache", workers=1).run(
            specs, journal=str(tmp_path / "journal")
        )
    finally:
        chaos.clear()
    assert all(o.state == "done" for o in report.outcomes)
    assert all(o.artifact is not None for o in report.outcomes)
    assert report.counters["campaign.store.put_errors"] == 1
    assert report.counters["campaign.chaos.store_enospc"] == 1
    assert len(_cache_bytes(tmp_path / "cache")) == len(specs) - 1

    # rerun with space available: the hole is recomputed and cached
    rerun = CampaignService(tmp_path / "cache", workers=1).run(specs)
    assert rerun.cached_hits == len(specs) - 1
    assert rerun.executed == 1
    assert len(_cache_bytes(tmp_path / "cache")) == len(specs)


def test_journal_disk_full_is_absorbed_and_resume_recovers(tmp_path):
    """ENOSPC on a journal append under-records but never fails the
    run; a resume of that journal simply recomputes the un-recorded
    job and converges to the same report."""
    specs = _specs(5, code_version="chaos-jfull")
    ref = CampaignService(tmp_path / "ref", workers=1).run(specs)

    # record 5 is job index 1's terminal record in an uninterrupted
    # workers=1 run (header, started 0, finished 0, started 1, ...)
    plan = chaos.ChaosPlan(journal_enospc_records=[5],
                           ledger=str(tmp_path / "ledger"))
    chaos.install(plan, tmp_path / "plan.json")
    try:
        report = CampaignService(tmp_path / "cache", workers=1).run(
            specs, journal=str(tmp_path / "journal")
        )
    finally:
        chaos.clear()
    assert all(o.state == "done" for o in report.outcomes)
    assert report.counters["campaign.journal.write_errors"] == 1
    assert report.counters["campaign.chaos.journal_enospc"] == 1

    state = read_journal(tmp_path / "journal")
    assert state.complete                    # the end record landed
    # the lost record was job 1's *terminal* record: its `started`
    # landed, so the journal still says running — which a resume
    # re-queues and recomputes
    assert state.job(1).state == "running"

    resumed = CampaignService.resume(str(tmp_path / "journal"))
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        ref.to_dict(), sort_keys=True
    )


# -- the store directory disappears wholesale --------------------------------


def test_store_vanishes_wholesale_and_campaign_converges(tmp_path):
    """The whole artifact-store directory is deleted out from under a
    live campaign (operator wipe / tmpfs reset).  The run completes
    with no job lost, later writes heal the tree, and a journaled
    resume recomputes the wiped entries and converges byte-for-byte
    with a fault-free reference."""
    specs = _specs(8, code_version="chaos-vanish")
    ref = CampaignService(tmp_path / "ref", workers=1).run(specs)
    ref_bytes = _cache_bytes(tmp_path / "ref")

    vanish_after = 3
    cache, journal = tmp_path / "cache", tmp_path / "journal"
    plan = chaos.ChaosPlan(store_vanish_after_writes=vanish_after,
                           ledger=str(tmp_path / "ledger"))
    chaos.install(plan, tmp_path / "plan.json")
    try:
        report = CampaignService(cache, workers=1).run(
            specs, journal=str(journal)
        )
    finally:
        chaos.clear()

    # no job lost: every spec reached done despite the mid-run wipe,
    # and the in-memory report still carries every artifact
    assert len(report.outcomes) == len(specs)
    assert all(o.state == "done" for o in report.outcomes)
    assert report.artifacts() == ref.artifacts()
    # the first N entries were wiped; the very next put re-created the
    # tree via mkdir(parents=True), so exactly the later entries survive
    assert len(_cache_bytes(cache)) == len(specs) - vanish_after
    assert chaos.ledger_counts(tmp_path / "ledger") == {
        "campaign.chaos.store_vanished": 1
    }
    assert report.counters["campaign.chaos.store_vanished"] == 1

    # a resume of the journal sees done jobs whose artifacts did not
    # survive, recomputes them, and converges — store fully healed
    resumed = CampaignService.resume(str(journal))
    assert len(resumed.outcomes) == len(specs)
    assert all(o.state == "done" for o in resumed.outcomes)
    assert resumed.artifacts() == ref.artifacts()
    assert resumed.counters["campaign.resumed"] == 1
    assert resumed.counters["campaign.restore_misses"] == vanish_after
    assert _cache_bytes(cache) == ref_bytes


# -- failed jobs are decided jobs ---------------------------------------------


def test_failed_jobs_survive_resume(tmp_path):
    """Jobs that raise are journaled as failed: every one runs once and
    fails with its own error, and a resume of the finished journal
    restores the report verbatim, errors included — a failed job is
    never re-run."""
    specs = grid("_selftest", 8,
                 {"mode": "fail-seeds", "fail_seeds": list(range(1, 8))},
                 code_version="chaos-failed")
    cache, journal = tmp_path / "cache", tmp_path / "journal"
    report = CampaignService(cache, workers=1).run(specs,
                                                   journal=str(journal))

    assert [o.state for o in report.outcomes] == ["done"] + ["failed"] * 7
    assert [o.error for o in report.outcomes[1:]] == [
        f"ValueError: selftest job failed deliberately (seed {s})"
        for s in range(1, 8)
    ]
    assert all(o.attempts == 1 for o in report.outcomes)
    assert report.counters["campaign.failed"] == 7
    state = read_journal(journal)
    assert [state.job(i).state for i in range(8)] == (
        ["done"] + ["failed"] * 7
    )

    resumed = CampaignService.resume(str(journal))
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        report.to_dict(), sort_keys=True
    )
    assert resumed.counters["campaign.restored"] == 8
    assert "campaign.executed" not in resumed.counters
    assert "campaign.failed" not in resumed.counters


# -- the seeded multi-fault suite (nightly scales this up) --------------------


def _chaos_seeds() -> range:
    return range(int(os.environ.get("REPRO_CHAOS_SEEDS", "3")))


def test_seeded_multi_fault_campaigns(tmp_path):
    """For each seed: draw a worker-kill plan, add a seeded disk-full
    fault, run a pooled journaled campaign, and hold the full invariant
    set.  ``REPRO_CHAOS_SEEDS`` scales the sweep (nightly: >= 25)."""
    max_kills = 2
    specs = _specs(8, code_version="chaos-suite")
    ref = CampaignService(tmp_path / "ref", workers=2).run(specs)
    ref_artifacts = ref.artifacts()
    summaries = []

    for seed in _chaos_seeds():
        work = tmp_path / f"seed-{seed:03d}"
        work.mkdir()
        plan = chaos.draw_plan(
            seed, [s.digest for s in specs], kill_probability=0.35,
            kill_after_probability=0.25, max_kills_per_job=max_kills,
            ledger=str(work / "ledger"),
        )
        # one seeded ENOSPC per stream keeps the absorb paths hot
        plan.store_enospc_writes = [1 + seed % 8]
        plan.journal_enospc_records = [2 + seed % 10]
        chaos.install(plan, work / "plan.json")
        try:
            report = CampaignService(
                work / "cache", workers=2, max_retries=max_kills,
            ).run(specs, journal=str(work / "journal"))
        finally:
            chaos.clear()

        assert len(report.outcomes) == len(specs)
        assert all(o.state == "done" for o in report.outcomes), (
            f"seed {seed}: {[o.error for o in report.outcomes if o.error]}"
        )
        assert all(o.attempts <= 1 + max_kills for o in report.outcomes)
        assert report.artifacts() == ref_artifacts
        ledger = chaos.ledger_counts(work / "ledger")
        for name, total in ledger.items():
            assert report.counters.get(name) == total, (
                f"seed {seed}: counter {name} does not account for "
                f"{total} ledgered fault(s)"
            )
        summaries.append({
            "seed": seed,
            "planned_kills": sum(len(v) for v in plan.kill_before.values())
            + sum(len(v) for v in plan.kill_after.values()),
            "ledger": ledger,
            "counters": report.counters,
            "attempts": [o.attempts for o in report.outcomes],
        })

    out = os.environ.get("REPRO_CHAOS_REPORT")
    if out:
        pathlib.Path(out).write_text(json.dumps({
            "jobs": len(specs),
            "seeds": len(summaries),
            "max_retries": max_kills,
            "campaigns": summaries,
        }, indent=2, sort_keys=True) + "\n")
        # export the per-seed journals next to the report so the
        # nightly job can upload them with it
        jdir = pathlib.Path(out).with_suffix(".journals")
        jdir.mkdir(exist_ok=True)
        for seed in _chaos_seeds():
            src = tmp_path / f"seed-{seed:03d}" / "journal"
            if src.exists():
                shutil.copy(src, jdir / f"seed-{seed:03d}.journal")
