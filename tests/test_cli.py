"""Tests for the CLI and the artifact registry."""

import pytest

from repro.cli import main
from repro.core.artifacts import ARTIFACTS, available, produce


def test_every_artifact_produces_text():
    for name in ARTIFACTS:
        text = produce(name)
        assert isinstance(text, str) and len(text) > 40, name


def test_produce_unknown_raises():
    with pytest.raises(KeyError):
        produce("fig99")


def test_available_lists_all():
    names = [n for n, _ in available()]
    assert names == list(ARTIFACTS)
    assert "table1" in names and "fig14" in names


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig13" in out


def test_cli_single_artifact(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "1.38" in out


def test_cli_multiple_artifacts(capsys):
    assert main(["fig6", "apps"]) == 0
    out = capsys.readouterr().out
    assert "8.78" in out
    assert "Sweep3D" in out


def test_cli_all(capsys):
    assert main(["all"]) == 0
    out = capsys.readouterr().out
    for marker in ("Table I", "Table IV", "Fig 10", "weak scaling", "Green500"):
        assert marker in out, marker


def test_cli_unknown_artifact(capsys):
    assert main(["nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown artifact" in err


def test_artifact_contents_spotchecks():
    assert "5.38" in produce("table1")
    assert "29.28" in produce("table3")
    assert "0.19" in produce("table4")
    assert "409.6" in produce("fig3")
    assert "1479" in produce("fig8")  # cores 1<->3 at 10 MB
    assert "1.026" in produce("linpack")
    assert "1.95x" in produce("apps")


def test_cli_validate_beside_an_artifact_prints_both(capsys):
    assert main(["table4", "validate"]) == 0
    out = capsys.readouterr().out
    assert 0 <= out.index("Table IV: Sweep3D") < out.index("Validation: paper vs")
    assert "30/30 checks pass" in out


def test_cli_unknown_name_beside_validate_exits_2(capsys):
    assert main(["nonsense", "validate"]) == 2
    captured = capsys.readouterr()
    assert "unknown artifact(s): nonsense" in captured.err
    assert captured.out == ""
