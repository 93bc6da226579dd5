"""Tests for the one-shot validation report and compare helpers."""

import dataclasses

import pytest

from repro.cli import main
from repro.core.artifacts import ARTIFACTS
from repro.validation.compare import monotonic, relative_error, shape_matches, within
from repro.validation.report import CheckResult, render_report, run_checks


def test_all_checks_pass():
    results = run_checks()
    failures = [r for r in results if not r.passed]
    assert not failures, [f"{r.section}: {r.claim}" for r in failures]


def test_checks_cover_every_section():
    sections = {r.section for r in run_checks()}
    for expected in ("Table I", "Table II", "Table III", "Table IV",
                     "§IV-A", "Fig 6", "Fig 14", "headline"):
        assert expected in sections


def test_report_renders_pass_count():
    results = run_checks()
    text = render_report(results)
    assert f"{len(results)}/{len(results)} checks pass" in text
    assert "FAIL" not in text


def test_report_shows_failures():
    bad = CheckResult("X", "claim", "1", "2", rel_error=1.0, tolerance=0.1)
    text = render_report([bad])
    assert "FAIL" in text
    assert "0/1 checks pass" in text


def test_cli_validate_exit_code(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "checks pass" in out


# --- compare helpers --------------------------------------------------------------

def test_relative_error_basics():
    assert relative_error(1.1, 1.0) == pytest.approx(0.1)
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 0.0) == float("inf")


def test_within():
    assert within(1.05, 1.0, 0.1)
    assert not within(1.2, 1.0, 0.1)


def test_monotonic():
    assert monotonic([1, 2, 3])
    assert monotonic([1, 1, 2], strict=False)
    assert not monotonic([1, 1, 2], strict=True)
    assert monotonic([3, 2, 1], increasing=False)


def test_shape_matches():
    assert shape_matches([1.0, 2.0], [1.05, 1.9], rel_tol=0.1)
    assert not shape_matches([1.0, 3.0], [1.0, 2.0], rel_tol=0.1)
    with pytest.raises(ValueError):
        shape_matches([1.0], [1.0, 2.0], rel_tol=0.1)


# --- claims read the artifacts' data -----------------------------------------------

def _with_doubled_pxc8i_time(monkeypatch):
    original = ARTIFACTS["table4"]

    def doubled():
        data = original.data()
        return {**data, "ours_pxc8i_s": 2 * data["ours_pxc8i_s"]}

    monkeypatch.setitem(ARTIFACTS, "table4",
                        dataclasses.replace(original, data=doubled))


def test_claims_read_the_registered_artifact(monkeypatch):
    """A claim's reproduced value is its artifact's data, not a model
    call of the check's own."""
    _with_doubled_pxc8i_time(monkeypatch)
    failed = [r.claim for r in run_checks() if not r.passed]
    assert failed == ["ours PXC8i (s)"]


def test_cli_validate_exits_1_on_a_failed_claim(monkeypatch, capsys):
    _with_doubled_pxc8i_time(monkeypatch)
    assert main(["validate"]) == 1
    assert "29/30 checks pass" in capsys.readouterr().out


def test_fig14_claims_read_the_full_machine_point():
    assert ARTIFACTS["fig14"].data()["nodes"][-1] == 3060
