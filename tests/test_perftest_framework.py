"""Unit and regression tests for the declarative perf framework.

Covers the reference primitives (floors/ceilings/bands), parameter-
space expansion, registry validation, the runner's policy pipeline
(skip -> xfail -> body -> references), the ``BENCH_perf.json`` format-2
migration, and that framework-emitted sections round-trip through the
*old* reader (:func:`enforce_speedup_floors`, kept here as the
reference) unchanged.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.framework import (
    Band,
    Case,
    Ceiling,
    Floor,
    PerfTest,
    SkipCase,
    check_references,
    perftest,
)
from benchmarks.framework.core import REGISTRY, expand
from benchmarks.framework.report import (
    BENCH_FORMAT,
    load_bench,
    migrate_bench,
    update_bench_section,
)
from benchmarks.framework.runner import run_case, run_measured_test


# -- references ---------------------------------------------------------------


def test_floor_ceiling_band_violations():
    assert Floor(2.5).violation(2.5) is None
    assert Floor(2.5).violation(3.0) is None
    assert "< floor 2.5" in Floor(2.5).violation(2.49)
    assert Ceiling(60.0).violation(60.0) is None
    assert "> ceiling 60" in Ceiling(60.0).violation(60.1)
    band = Band(0.18, 0.28)
    assert band.violation(0.2) is None
    assert "< floor" in band.violation(0.1)
    assert "> ceiling" in band.violation(0.3)
    assert band.describe() == "within [0.18, 0.28]"


def test_band_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="hi .* < lo"):
        Band(1.0, 0.5)


def test_reference_to_dict_round_trips_bounds():
    assert Floor(3.0).to_dict() == {"lo": 3.0}
    assert Ceiling(2.0).to_dict() == {"hi": 2.0}
    assert Band(0.1, 0.9).to_dict() == {"lo": 0.1, "hi": 0.9}
    assert Floor(3.0, required=False).to_dict() == {
        "lo": 3.0, "required": False
    }


def test_check_references_reports_all_violations_sorted():
    metrics = {"a": 1.0, "b": 5.0, "c": 0.5}
    refs = {"c": Floor(1.0), "a": Floor(2.0), "b": Ceiling(4.0)}
    violations = check_references(metrics, refs)
    assert len(violations) == 3
    assert [v.split(":")[0] for v in violations] == ["a", "b", "c"]


def test_check_references_missing_metric_policy():
    # required (default): missing metric is a violation
    assert check_references({}, {"speedup": Floor(2.0)}) == [
        "speedup: metric missing (reference >= 2)"
    ]
    # conditional: enforced only when the metric was produced — the
    # git-seed speedups (no history -> no metric) use this
    assert check_references({}, {"speedup": Floor(2.0, required=False)}) == []
    assert check_references(
        {"speedup": 1.0}, {"speedup": Floor(2.0, required=False)}
    ) != []


# -- parameter-space expansion ------------------------------------------------


def test_expand_cartesian_product_and_ids():
    cases = expand({"workload": ["chain", "pingpong"], "oracle": ["t", "s"]})
    assert [c.id for c in cases] == [
        "chain-t", "chain-s", "pingpong-t", "pingpong-s"
    ]
    assert cases[0].workload == "chain" and cases[0]["oracle"] == "t"
    with pytest.raises(AttributeError):
        cases[0].missing


def test_expand_empty_space_is_one_default_case():
    cases = expand({})
    assert len(cases) == 1
    assert cases[0].id == "default"
    assert dict(cases[0]) == {}


# -- registry validation ------------------------------------------------------


def test_perftest_decorator_validates_declarations():
    with pytest.raises(ValueError, match="declares no name"):
        @perftest
        class Nameless(PerfTest):
            pass

    with pytest.raises(ValueError, match="unknown tier"):
        @perftest
        class BadTier(PerfTest):
            name = "bad-tier-unit-test"
            tiers = ("smoke", "nightly")

    @perftest
    class First(PerfTest):
        name = "dupe-unit-test"
    try:
        with pytest.raises(ValueError, match="duplicate perf test name"):
            @perftest
            class Second(PerfTest):
                name = "dupe-unit-test"
    finally:
        REGISTRY.pop("dupe-unit-test", None)
    REGISTRY.pop("bad-tier-unit-test", None)


# -- the runner's policy pipeline --------------------------------------------


class _Synthetic(PerfTest):
    """A scriptable test: behavior injected per instance."""

    name = "synthetic"
    params = {"mode": ["only"]}

    def __init__(self, *, sanity=None, measure=None, skip=None, xfail=None,
                 references=None):
        self._sanity = sanity
        self._measure = measure
        self._skip = skip
        self._xfail = xfail
        self.references = references or {}

    def skip(self, case):
        return self._skip

    def xfail(self, case):
        return self._xfail

    def sanity(self, case):
        return self._sanity() if self._sanity else None

    def measure(self, case):
        return self._measure() if self._measure else {}


def _one_case(test, tier="smoke"):
    return run_case(test, test.cases()[0], tier)


def test_run_case_skip_beats_body():
    ran = []
    out = _one_case(_Synthetic(sanity=lambda: ran.append(1), skip="later"))
    assert out.status == "skipped" and out.detail == "later"
    assert not ran


def test_run_case_skipcase_from_body():
    def body():
        raise SkipCase("no git history")
    out = _one_case(_Synthetic(sanity=body))
    assert out.status == "skipped" and out.detail == "no git history"


def test_run_case_xfail_and_unexpected_pass():
    def bad():
        raise AssertionError("known divergence")
    out = _one_case(_Synthetic(sanity=bad, xfail="tracked upstream"))
    assert out.status == "xfailed" and out.ok

    out = _one_case(_Synthetic(sanity=lambda: None, xfail="tracked upstream"))
    assert out.status == "xpassed" and not out.ok
    assert "remove the stale xfail" in out.detail


def test_run_case_tier_participation():
    test = _Synthetic(measure=lambda: {"v": 1.0})
    test.tiers = ("measured",)
    out = _one_case(test, "smoke")
    assert out.status == "skipped"
    assert "does not participate" in out.detail


def test_run_case_smoke_references_bind_when_metrics_returned():
    # a sanity body returning metrics gets its references enforced in
    # the smoke tier — this is how profile-shape gates run in tier-1
    out = _one_case(_Synthetic(sanity=lambda: {"frac": 0.9},
                               references={"frac": Ceiling(0.5)}))
    assert out.status == "failed"
    assert "> ceiling 0.5" in out.detail

    out = _one_case(_Synthetic(sanity=lambda: {"frac": 0.4},
                               references={"frac": Ceiling(0.5)}))
    assert out.status == "passed" and out.metrics == {"frac": 0.4}


def test_run_case_measured_references_enforced():
    out = _one_case(_Synthetic(measure=lambda: {"speedup": 1.2},
                               references={"speedup": Floor(2.0)}),
                    "measured")
    assert out.status == "failed" and "speedup" in out.detail


# -- BENCH_perf.json format 2 -------------------------------------------------


def test_migrate_bench_format_1_and_unknown_future():
    doc = {"des_engine": {"workloads": {}}, "_meta": {"format": 1}}
    migrated = migrate_bench(doc)
    assert migrated["_meta"]["format"] == BENCH_FORMAT
    assert migrated["_meta"]["migrated_from"] == 1
    assert migrated["des_engine"] == {"workloads": {}}  # sections untouched

    # a pre-_meta document is adopted without a migration marker
    assert migrate_bench({})["_meta"] == {"format": BENCH_FORMAT}

    with pytest.raises(ValueError, match="format 3"):
        migrate_bench({"_meta": {"format": BENCH_FORMAT + 1}})


def test_update_bench_section_preserves_others_and_stamps_meta(tmp_path):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({
        "network": {"latency_map": {"speedup": 12.0}},
        "_meta": {"format": 1},
    }))
    update_bench_section("des_engine", {"workloads": {}}, path=path)
    data = json.loads(path.read_text())
    assert data["network"] == {"latency_map": {"speedup": 12.0}}
    assert data["des_engine"] == {"workloads": {}}
    meta = data["_meta"]
    assert meta["format"] == BENCH_FORMAT
    assert meta["migrated_from"] == 1
    assert meta["framework"] == "benchmarks.framework"
    assert {"python", "machine", "processor", "cpu_count"} <= set(meta)
    # idempotent: a second load keeps the document stable
    assert load_bench(path)["_meta"]["format"] == BENCH_FORMAT


# -- satellite: framework sections round-trip through the old readers --------


def enforce_speedup_floors(results: dict, floors: dict) -> None:
    """Assert ``results[name]["speedup"] >= floor`` for every floor,
    reporting all violations together.

    The historical reader of the per-workload section shape
    (``{name: {"speedup": ...}}``): the format-2 sections the framework
    publishes are pinned against it, so it stays as the reference.
    """
    failures = []
    for name, floor in floors.items():
        speedup = results[name]["speedup"]
        if speedup < floor:
            failures.append(f"{name}: {speedup:.2f}x < required {floor}x")
    assert not failures, "; ".join(failures)


def _synthetic_des_metrics(speedups):
    return {
        name: {
            "baseline_events_per_s": 450_000,
            "current_events_per_s": round(450_000 * s),
            "speedup": s,
        }
        for name, s in speedups.items()
    }


def test_framework_section_feeds_enforce_speedup_floors():
    """The regression pin: ``DesEngineThroughput.publish`` emits the
    historical section shape, and the *old* reader consumes it with no
    adaptation — byte-compatible keys, same floor semantics."""
    from benchmarks.perf.perf_des_engine import (
        MIN_SPEEDUPS,
        DesEngineThroughput,
    )

    metrics = _synthetic_des_metrics(
        {name: floor + 0.5 for name, floor in MIN_SPEEDUPS.items()}
    )
    section = DesEngineThroughput().publish(metrics)
    # the historical shape, key for key
    assert set(section) == {
        "baseline_source", "events_per_workload", "workloads",
        "headline", "min_speedups",
    }
    assert section["headline"] == "chain"
    assert set(section["workloads"]) == set(MIN_SPEEDUPS)
    # the old reader enforces straight off the published section
    enforce_speedup_floors(section["workloads"], MIN_SPEEDUPS)

    regressed = _synthetic_des_metrics(
        {name: floor - 0.1 for name, floor in MIN_SPEEDUPS.items()}
    )
    bad = DesEngineThroughput().publish(regressed)
    with pytest.raises(AssertionError) as err:
        enforce_speedup_floors(bad["workloads"], MIN_SPEEDUPS)
    # all violations reported together, the old reader's contract
    assert all(name in str(err.value) for name in MIN_SPEEDUPS)


def test_run_measured_test_publishes_section_to_bench(tmp_path):
    """End-to-end baseline capture: a measured run with refresh writes
    the section into a format-2 BENCH document the old readers (and
    ``load_bench``) still consume."""
    class _Measured(_Synthetic):
        name = "synthetic_measured"
        section = "synthetic_section"
        tiers = ("measured",)

        def publish(self, metrics):
            return {"workloads": {cid: dict(m) for cid, m in metrics.items()}}

    test = _Measured(measure=lambda: {"speedup": 3.0},
                     references={"speedup": Floor(2.0)})
    path = tmp_path / "BENCH_perf.json"
    outcomes = run_measured_test(test, refresh=True, bench_path=path)
    assert [o.status for o in outcomes] == ["passed"]

    data = load_bench(path)
    assert data["_meta"]["format"] == BENCH_FORMAT
    section = data["synthetic_section"]
    enforce_speedup_floors(section["workloads"], {"only": 2.0})
    with pytest.raises(AssertionError):
        enforce_speedup_floors(section["workloads"], {"only": 3.5})


def test_every_declared_section_is_committed():
    """``BENCH_perf.json`` must not go stale silently: every registered
    suite test that declares a section finds it in the committed file."""
    from benchmarks.framework.runner import SUITE_MODULES, discover

    committed = load_bench()
    missing = sorted(
        cls.section
        for cls in discover().values()
        if cls.__module__ in SUITE_MODULES
        and cls.section is not None
        and cls.section not in committed
    )
    assert not missing, (
        f"BENCH_perf.json lacks section(s) {missing}: record them with "
        "python -m repro perftest <name> --refresh-baselines"
    )
