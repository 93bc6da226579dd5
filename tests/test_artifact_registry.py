"""The artifact registry against a recorded oracle, and the checks its
producers run.

``tests/fixtures/artifacts.json`` holds every registry name's text and
JSON, plus the ``validate`` report's, as recorded before text, JSON and
claims shared one producer.  Text must stay byte-identical.  JSON may
gain keys, but every recorded key path must hold an equal value; Figs
7-9 may sample more message sizes, so for them every recorded (size,
value) pair must still be present.

To regenerate the fixture after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_artifact_registry.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.artifacts import ARTIFACTS, lookup, produce
from repro.network.topology import RoadrunnerTopology

FIXTURE = Path(__file__).parent / "fixtures" / "artifacts.json"
NAMES = [*ARTIFACTS, "validate"]
SIZED = ("fig7", "fig8", "fig9")


@pytest.fixture(scope="module")
def produced():
    """name -> (text, JSON round-tripped data), each computed once."""
    out = {}
    for name in NAMES:
        artifact = lookup(name)
        data = artifact.data()
        out[name] = (artifact.render(data),
                     json.loads(json.dumps(data, sort_keys=True)))
    return out


@pytest.fixture(scope="module")
def recorded(produced):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        payload = {
            "text": {name: text for name, (text, _) in produced.items()},
            "json": {name: data for name, (_, data) in produced.items()},
        }
        FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {FIXTURE}")
    return json.loads(FIXTURE.read_text())


def _leaves(doc, path=()):
    """(key path, value) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, (*path, i))
    else:
        yield path, doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("name", NAMES)
def test_text_is_unchanged(name, produced, recorded):
    assert produced[name][0] == recorded["text"][name]


@pytest.mark.parametrize("name", NAMES)
def test_json_keeps_every_recorded_value(name, produced, recorded):
    new, old = produced[name][1], recorded["json"][name]
    if name in SIZED:
        for key, series in old.items():
            now = dict(zip(new["sizes_bytes"], new[key]))
            for size, value in zip(old["sizes_bytes"], series):
                assert now[size] == value, (key, size)
        return
    for path, value in _leaves(old):
        assert _at(new, path) == value, path


def test_fig2_runs_its_port_budget_check(monkeypatch):
    """Fig 2's port-budget line comes from the wired graph: a crossbar
    over its 24 ports stops the artifact instead of printing 24."""
    real = RoadrunnerTopology.port_usage

    def one_over(self):
        usage = real(self)
        usage[next(iter(usage))] = 25
        return usage

    monkeypatch.setattr(RoadrunnerTopology, "port_usage", one_over)
    with pytest.raises(AssertionError, match="25"):
        produce("fig2")
