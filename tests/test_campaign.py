"""The campaign service: job model, artifact store, worker pool, CLI.

The load-bearing contracts, in test order:

* **Content addressing** — the spec digest is a pure function of the
  spec's *values* (dict insertion order is invisible), and every field
  (scenario, config, seed, code_version) perturbs it.
* **The store** — a cache hit returns the bitwise-identical artifact;
  a ``code_version`` change misses; corrupt/truncated/tampered entries
  are detected, reported as misses, and healed by recomputation.
* **The service** — a warm-cache rerun of an identical campaign
  performs *zero* simulations (every job streams ``cached-hit``).
* **The pool** — crashes retry (bounded), deterministic job
  exceptions fail fast, timeouts don't wedge the campaign, and
  arguments the pool cannot honour are rejected before anything runs.
* **The journal** — resume cuts a torn tail, restores cache hits as
  cache hits, and reproduces the uninterrupted report.
* **The CLI** — ``python -m repro --help`` lists the subcommand table;
  the ``campaign`` subcommand runs end to end, streams JSON-lines,
  exits 2 on bad pool flags, and ``--resume`` reproduces the report.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    ArtifactStore,
    CampaignService,
    JobSpec,
    Journal,
    canonical_json,
    content_digest,
    grid,
    read_journal,
    run_specs,
)
from repro.campaign.jobs import DONE, FAILED
from repro.campaign.scenarios import job_config, run_job

REPO = Path(__file__).resolve().parents[1]

#: the fast sweep tenant: ~10 ms per job, seed-sensitive via drops
TINY = {"drop_probability": 0.05}


def _spec(seed=0, config=TINY, **kwargs):
    return JobSpec(
        "sweep", job_config("sweep", config), seed,
        kwargs.pop("code_version", "test-v1"),
    )


def _selftest_spec(seed, **config):
    return JobSpec(
        "_selftest", job_config("_selftest", config), seed, "test-v1"
    )


# -- content addressing ------------------------------------------------------


def test_digest_stable_across_dict_ordering():
    a = JobSpec("sweep", {"kt": 4, "it": 2, "grind": 1e-6}, 3, "v1")
    b = JobSpec("sweep", {"grind": 1e-6, "it": 2, "kt": 4}, 3, "v1")
    assert a == b
    assert a.digest == b.digest
    # nested dicts canonicalize recursively too
    x = JobSpec("sweep", {"outer": {"b": 2, "a": 1}}, 0, "v1")
    y = JobSpec("sweep", {"outer": {"a": 1, "b": 2}}, 0, "v1")
    assert x.digest == y.digest


def test_digest_sensitive_to_every_field():
    base = _spec()
    assert _spec(seed=1).digest != base.digest
    assert _spec(config={"drop_probability": 0.06}).digest != base.digest
    assert _spec(code_version="test-v2").digest != base.digest
    other = JobSpec("sweep3060", base.config, base.seed, base.code_version)
    assert other.digest != base.digest


def test_spec_roundtrips_through_wire_format():
    spec = _spec(seed=9)
    again = JobSpec.from_dict(json.loads(canonical_json(spec.to_dict())))
    assert again == spec
    assert again.digest == spec.digest


def test_spec_rejects_non_json_config_and_nan():
    with pytest.raises(TypeError):
        JobSpec("sweep", {"bad": object()}, 0, "v1")
    with pytest.raises(ValueError):
        JobSpec("sweep", {"bad": float("nan")}, 0, "v1")


def test_job_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        job_config("sweep", {"drop_probablity": 0.05})  # the typo guard
    with pytest.raises(ValueError, match="unknown scenario"):
        job_config("no-such-scenario")


# -- the artifact store ------------------------------------------------------


def test_store_hit_is_bitwise_identical(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = _spec()
    artifact = run_job(spec)
    store.put(spec, artifact)
    cached = store.get(spec)
    assert cached == artifact
    assert canonical_json(cached) == canonical_json(artifact)
    assert store.hits == 1 and store.corrupt == 0
    assert len(store) == 1


def test_store_misses_on_code_version_change(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = _spec()
    store.put(spec, run_job(spec))
    assert store.get(_spec(code_version="test-v2")) is None
    assert store.misses == 1


@pytest.mark.parametrize("damage", ["truncate", "garbage", "tamper"])
def test_store_detects_corruption_and_service_heals_it(tmp_path, damage):
    store = ArtifactStore(tmp_path)
    spec = _spec()
    artifact = run_job(spec)
    path = store.put(spec, artifact)
    if damage == "truncate":
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
    elif damage == "garbage":
        path.write_text("not json at all {{{")
    else:  # tamper: flip a payload value, leave the recorded sha stale
        data = json.loads(path.read_text())
        data["artifact"]["messages"] += 1
        path.write_text(json.dumps(data))
    assert store.get(spec) is None
    assert store.corrupt == 1
    # the service recomputes and atomically rewrites the entry
    report = CampaignService(store).run([spec])
    assert report.executed == 1 and report.cached_hits == 0
    assert store.get(spec) == artifact


# -- the service -------------------------------------------------------------


def test_warm_cache_rerun_performs_zero_simulations(tmp_path):
    specs = grid("sweep", 4, TINY, code_version="test-v1")
    service = CampaignService(tmp_path / "cache")
    events = []
    first = service.run(specs, progress=lambda e: events.append(e))
    assert first.executed == 4 and first.cached_hits == 0
    events.clear()
    second = service.run(specs, progress=lambda e: events.append(e))
    # the acceptance criterion: every job a cached-hit, nothing started
    assert second.cached_hits == 4 and second.executed == 0
    assert all(o.cached for o in second.outcomes)
    assert {e.event for e in events} == {"queued", "cached-hit"}
    assert second.artifacts() == first.artifacts()
    assert [o.artifact_sha256 for o in second.outcomes] == [
        o.artifact_sha256 for o in first.outcomes
    ]


def test_progress_stream_order_and_counters(tmp_path):
    specs = grid("sweep", 2, TINY, code_version="test-v1")
    service = CampaignService(tmp_path / "cache")
    service.run([specs[0]])  # warm exactly one job
    events = []
    service.run(specs, progress=lambda e: events.append(e))
    kinds = [(e.event, e.index) for e in events]
    assert kinds == [
        ("queued", 0), ("cached-hit", 0),
        ("queued", 1), ("started", 1), ("finished", 1),
    ]
    last = events[-1]
    assert last.counters["campaign.executed"] == 1.0
    assert last.counters["campaign.cached_hit"] == 1.0
    # events serialize to JSON-lines
    for e in events:
        line = json.dumps(e.to_dict(), sort_keys=True)
        assert json.loads(line)["job"] == e.digest[:12]


def test_service_without_store_executes_everything():
    specs = grid("sweep", 2, TINY, code_version="test-v1")
    report = CampaignService(store=None).run(specs)
    assert report.executed == 2 and report.cached_hits == 0
    assert report.store_stats is None


def test_grid_builds_complete_configs():
    specs = grid("sweep", [5, 7], TINY, code_version="test-v1")
    assert [s.seed for s in specs] == [5, 7]
    # the spec carries the *full* effective config, not just overrides
    assert specs[0].config["kt"] == 4
    assert specs[0].config["drop_probability"] == 0.05


# -- the worker pool ---------------------------------------------------------


def test_pool_retries_crashed_worker(tmp_path):
    crash = _selftest_spec(0, mode="crash-once",
                           marker=str(tmp_path / "marker"))
    ok = _selftest_spec(1, mode="ok", value=7)
    results = run_specs([crash, ok], workers=2, max_retries=2)
    assert results[0].state == DONE
    assert results[0].attempts == 2
    assert results[0].artifact == {"seed": 0, "recovered": True}
    assert results[1].state == DONE


def test_pool_crash_retries_are_bounded(tmp_path):
    # no marker file is ever consulted twice with max_retries=0: the
    # first death exhausts the budget
    crash = _selftest_spec(0, mode="crash-once",
                           marker=str(tmp_path / "marker"))
    results = run_specs([crash], workers=2, max_retries=0)
    assert results[0].state == FAILED
    assert "worker process died" in results[0].error


def test_pool_fails_fast_on_job_exception():
    bad = _selftest_spec(0, mode="fail")
    ok = _selftest_spec(1, mode="ok", value=1)
    results = run_specs([bad, ok], workers=2)
    assert results[0].state == FAILED
    assert results[0].attempts == 1  # deterministic raise: no retry
    assert "ValueError" in results[0].error
    assert results[1].state == DONE


def test_pool_timeout_does_not_wedge_the_campaign():
    sleepy = _selftest_spec(0, mode="sleep", sleep_s=1.5)
    ok = [_selftest_spec(s, mode="ok", value=s) for s in (1, 2)]
    results = run_specs([sleepy, *ok], workers=2, timeout=0.4)
    assert results[0].state == FAILED
    assert "timeout" in results[0].error
    assert [r.state for r in results[1:]] == [DONE, DONE]


def test_pool_timeout_abandons_only_the_offender(tmp_path):
    """Regression: one job's lease expiry must not discard or re-run
    its siblings' work.  The tally files prove every sibling executed
    exactly once while the wedged worker sat abandoned."""
    sleepy = _selftest_spec(0, mode="sleep", sleep_s=3.0)
    siblings = [
        _selftest_spec(s, mode="count", sleep_s=0.3,
                       marker=str(tmp_path / f"tally-{s}"))
        for s in (1, 2, 3)
    ]
    results = run_specs([sleepy, *siblings], workers=2, timeout=0.8)
    assert results[0].state == FAILED
    assert results[0].detail.get("timeout") is True
    assert [r.state for r in results[1:]] == [DONE] * 3
    for s in (1, 2, 3):
        tally = (tmp_path / f"tally-{s}").read_text().splitlines()
        assert tally == [str(s)], f"sibling {s} ran {len(tally)} times"


def test_inline_and_pool_agree_on_results():
    specs = [_selftest_spec(s, mode="ok", value=s * s) for s in range(4)]
    inline = run_specs(specs, workers=1)
    pooled = run_specs(specs, workers=2)
    assert [r.artifact for r in inline] == [r.artifact for r in pooled]
    assert [r.state for r in inline] == [r.state for r in pooled]


@pytest.mark.parametrize("kwargs, match", [
    ({"workers": 0}, "workers must be >= 1"),
    ({"workers": 2, "max_retries": -1}, "max_retries must be >= 0"),
    ({"workers": 2, "timeout": -1.0}, "timeout must be a positive"),
    ({"workers": 2, "timeout": 0.0}, "timeout must be a positive"),
    ({"workers": 1, "timeout": 5.0}, "timeout needs workers >= 2"),
], ids=["no-workers", "negative-retries", "negative-timeout", "zero-timeout",
        "inline-timeout"])
def test_pool_arguments_are_checked_up_front(tmp_path, kwargs, match):
    with pytest.raises(ValueError, match=match):
        CampaignService(tmp_path / "cache", **kwargs)
    assert not (tmp_path / "cache").exists()     # rejected before any I/O
    with pytest.raises(ValueError, match=match):
        run_specs([_selftest_spec(0)], **kwargs)


# -- the journal -------------------------------------------------------------


def _journal_fixture(tmp_path, n=3):
    specs = [_selftest_spec(s, mode="ok", value=s) for s in range(n)]
    journal = Journal.create(
        tmp_path / "journal", specs,
        store_root=str(tmp_path / "cache"), options={"workers": 1},
    )
    return specs, journal


def test_journal_reader_tolerates_torn_tail(tmp_path):
    specs, journal = _journal_fixture(tmp_path)
    journal.record_started(0, 1)
    journal.record_finished(0, 1, "a" * 64)
    journal.record_started(1, 1)
    journal.close()
    # a crash mid-append leaves a partial final line (no newline)
    with open(tmp_path / "journal", "a") as fh:
        fh.write('{"type": "state", "index": 1, "sta')
    state = read_journal(tmp_path / "journal")
    assert state.records == 4                   # header + 3 complete records
    assert state.job(0).state == DONE
    assert state.job(0).artifact_sha256 == "a" * 64
    assert state.job(1).state == "running"      # torn terminal is dropped
    assert state.job(2).state == "pending"
    assert not state.complete


def test_resume_cuts_a_torn_journal_tail_and_appends(tmp_path):
    """A crash mid-append leaves a torn last line.  Resume truncates the
    journal to the prefix the reader trusts, appends after it, and
    converges on the uninterrupted run's report."""
    specs = [_selftest_spec(s, mode="ok", value=s) for s in range(3)]
    ref = CampaignService(tmp_path / "ref").run(specs)
    journal = tmp_path / "journal"
    service = CampaignService(tmp_path / "cache")
    service.run(specs, journal=str(journal))
    # the crash: job 0 done, job 1's terminal record torn mid-line, and
    # job 2 never started (so its artifact never reached the store)
    lines = journal.read_text().splitlines(keepends=True)
    torn = lines[4][: len(lines[4]) // 2]
    journal.write_text("".join(lines[:4]) + torn)
    service.store.path_for(specs[2]).unlink()
    state = read_journal(journal)
    assert state.records == 4
    assert state.length == len("".join(lines[:4]))
    assert state.job(1).state == "running"

    resumed = CampaignService.resume(str(journal))
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        ref.to_dict(), sort_keys=True)
    final = read_journal(journal)
    assert final.complete
    # the torn line is gone, the trusted prefix is kept byte for byte
    text = journal.read_text()
    assert text.startswith("".join(lines[:4]))
    assert all(json.loads(line) for line in text.splitlines())


def test_resume_restores_cache_hits_from_the_journal(tmp_path):
    """A journaled run whose first jobs were cache hits: resume must
    restore them as cache hits (store counters included) and match
    the uninterrupted run's report exactly."""
    specs = [_selftest_spec(s, mode="ok", value=s) for s in range(4)]
    cache = tmp_path / "cache"
    CampaignService(cache).run(specs[:2])        # warm jobs 0 and 1
    journal = tmp_path / "journal"
    ref = CampaignService(cache).run(specs, journal=str(journal))
    assert ref.cached_hits == 2 and ref.executed == 2
    state = read_journal(journal)
    assert [state.job(i).cached for i in range(4)] == [True, True,
                                                       False, False]

    # the crash: after the two cache hits and job 2's start, before
    # job 3 ran
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[:4]))
    ArtifactStore(cache).path_for(specs[3]).unlink()
    resumed = CampaignService.resume(str(journal))
    assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
        ref.to_dict(), sort_keys=True)
    assert resumed.store_stats == ref.store_stats
    assert resumed.counters["campaign.restored"] == 2
    assert read_journal(journal).complete


def test_journal_rejects_missing_or_alien_header(tmp_path):
    empty = tmp_path / "empty"
    empty.write_text("")
    with pytest.raises(ValueError, match="no header"):
        read_journal(empty)
    alien = tmp_path / "alien"
    alien.write_text('{"type": "diary", "format": 1}\n')
    with pytest.raises(ValueError, match="not a campaign journal"):
        read_journal(alien)
    garbage = tmp_path / "garbage"
    garbage.write_text("not json at all\n")
    with pytest.raises(ValueError, match="not JSON"):
        read_journal(garbage)


def test_journal_rejects_future_format_with_upgrade_message(tmp_path):
    """Forward compatibility: a journal written by a hypothetical newer
    repro (format 2, extra header fields, unknown record types) is
    rejected with a clear upgrade error — not a KeyError deep in the
    replay loop, and never silently misread."""
    future = tmp_path / "future"
    future.write_text(
        '{"type": "campaign", "format": 2, "specs": [], "store": null, '
        '"options": {}, "shards": 4}\n'
        '{"type": "shard-map", "assignment": [0, 1, 2, 3]}\n'
        '{"type": "state", "index": 0, "state": "done", "attempts": 1, '
        '"artifact_sha256": null, "lease": "w3"}\n'
    )
    with pytest.raises(ValueError) as err:
        read_journal(future)
    msg = str(err.value)
    assert "format 2" in msg
    assert "only reads format 1" in msg
    assert "newer version" in msg

    # a missing format field is the same refusal, not a crash
    unversioned = tmp_path / "unversioned"
    unversioned.write_text('{"type": "campaign", "specs": []}\n')
    with pytest.raises(ValueError, match="format None"):
        read_journal(unversioned)


# -- the CLI -----------------------------------------------------------------


def _run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=180, cwd=cwd,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_repro_help_lists_subcommand_table():
    proc = _run_cli("--help")
    assert proc.returncode == 0, proc.stderr
    assert "subcommands" in proc.stdout
    assert "profile" in proc.stdout
    assert "campaign" in proc.stdout


def test_campaign_cli_lists_scenarios():
    proc = _run_cli("campaign", "--list")
    assert proc.returncode == 0, proc.stderr
    for name in ("sweep", "sweep3060", "placement-penalty"):
        assert name in proc.stdout
    assert "_selftest" not in proc.stdout  # harness tenant stays hidden


def test_campaign_cli_end_to_end_with_cache(tmp_path):
    args = ("campaign", "sweep", "--seeds", "2", "--cache-dir",
            str(tmp_path / "cache"), "--jsonl")
    first = _run_cli(*args, cwd=str(tmp_path))
    assert first.returncode == 0, first.stderr
    events = [json.loads(line) for line in first.stdout.splitlines()]
    assert sum(1 for e in events if e["event"] == "finished") == 2
    second = _run_cli(*args, cwd=str(tmp_path))
    assert second.returncode == 0, second.stderr
    events = [json.loads(line) for line in second.stdout.splitlines()]
    assert sum(1 for e in events if e["event"] == "cached-hit") == 2
    assert not any(e["event"] == "started" for e in events)


def test_campaign_cli_rejects_unknown_scenario_and_keys(tmp_path):
    assert _run_cli("campaign", "no-such").returncode == 2
    proc = _run_cli("campaign", "sweep", "--seeds", "1",
                    "--set", "not_a_key=1")
    assert proc.returncode == 2
    assert "unknown config key" in proc.stderr


@pytest.mark.parametrize("flags, match", [
    (("--workers", "0"), "workers must be >= 1"),
    (("--workers", "2", "--max-retries", "-1"), "max_retries must be >= 0"),
    (("--workers", "2", "--timeout", "-1"), "timeout must be a positive"),
    (("--timeout", "5"), "timeout needs workers >= 2"),
], ids=["no-workers", "negative-retries", "negative-timeout",
        "inline-timeout"])
def test_campaign_cli_rejects_bad_worker_flags(tmp_path, flags, match):
    # a warm cache must not hide the error either
    cache = str(tmp_path / "cache")
    assert _run_cli("campaign", "sweep", "--seeds", "1", "--cache-dir",
                    cache).returncode == 0
    proc = _run_cli("campaign", "sweep", "--seeds", "1", "--cache-dir",
                    cache, *flags)
    assert proc.returncode == 2
    assert match in proc.stderr
    assert "Traceback" not in proc.stderr


def test_campaign_cli_resume_reproduces_the_report(tmp_path):
    cache, journal = str(tmp_path / "cache"), str(tmp_path / "journal")
    first = _run_cli("campaign", "sweep", "--seeds", "3", "--cache-dir",
                     cache, "--journal", journal, "--report",
                     str(tmp_path / "a.json"))
    assert first.returncode == 0, first.stderr
    again = _run_cli("campaign", "--resume", journal, "--report",
                     str(tmp_path / "b.json"))
    assert again.returncode == 0, again.stderr
    assert "resuming campaign from" in again.stdout
    assert (tmp_path / "a.json").read_bytes() == (
        tmp_path / "b.json").read_bytes()


def test_profile_still_dispatches_through_the_registry():
    proc = _run_cli("profile", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "scenario" in proc.stdout
