"""Tests for the JSON data layer and the --json CLI path."""

import json

import pytest

from repro.cli import main
from repro.core.artifacts import ARTIFACTS, produce_data


def test_all_producers_json_serializable():
    for name in [*ARTIFACTS, "validate"]:
        payload = produce_data(name)
        text = json.dumps(payload)
        assert len(text) > 20, name


def test_unknown_producer_raises():
    with pytest.raises(KeyError):
        produce_data("fig99")


def test_table1_data_values():
    data = produce_data("table1")
    assert data["destinations_by_hops"] == {
        "0": 1, "1": 7, "3": 260, "5": 1932, "7": 860
    }
    assert data["average_hops"] == pytest.approx(5.3814, abs=1e-3)


def test_fig13_data_shapes():
    data = produce_data("fig13")
    n = len(data["nodes"])
    for key in ("opteron", "cell_measured", "cell_best"):
        assert len(data[key]) == n


def test_fig10_data_full_length():
    data = produce_data("fig10")
    assert len(data["latency_us_by_node"]) == 3060
    assert data["latency_us_by_node"][0] == 0.0


def test_validate_data_all_pass():
    data = produce_data("validate")
    assert data["passed"] == data["total"] == len(data["checks"])


def test_energy_data_advantages():
    data = produce_data("energy")
    assert set(data) == {"1", "64", "1024", "3060"}
    for point in data.values():
        assert point["energy_best"] >= point["energy_measured"] > 1.0


def test_cli_json_single(capsys):
    assert main(["--json", "linpack"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rmax_pflops"] == pytest.approx(1.026, rel=0.01)


def test_cli_json_multiple(capsys):
    assert main(["--json", "table1", "apps"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"table1", "apps"}
    assert payload["apps"]["Sweep3D"] == pytest.approx(1.95, rel=0.01)


def test_cli_json_unknown(capsys):
    assert main(["--json", "bogus"]) == 2
    assert "no JSON producer" in capsys.readouterr().err
