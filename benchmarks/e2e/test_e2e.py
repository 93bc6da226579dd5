"""Tests of the end-to-end benchmark itself (reduced ``--quick`` sizes).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from .compare import verdict
from .metrics import SPEC
from .stats import median, quartiles, spread, summarize
from .tracer import KERNEL_TARGET, TARGETS, Tracer, traced
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _cli(*args: str, out: Path | None = None) -> tuple[subprocess.CompletedProcess, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "0", *args]
    if out is not None:
        cmd += ["--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc, line = _cli("--trace", out=out)
    assert proc.returncode == 0, proc.stderr
    return line, json.loads(out.read_text())


# -- output schema -----------------------------------------------------------

def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_metric_is_reported_with_its_unit(traced_run):
    line, report = traced_run
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert report["validate"]["passed"] == report["validate"]["total"] >= 30
    assert report["manifest"]["comparable"] is False
    for name, entry in report["workloads"].items():
        assert entry["correct"], entry["failures"]
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                assert entry[section][m["name"]]["unit"] == m["unit"]
        for m in SPEC["end_to_end"]:
            assert entry["end_to_end"][m["name"]]["value"] > 0
        # with --trace the last line carries the per-layer metrics
        for m in SPEC["per_layer"]:
            got = entry["per_layer"][m["name"]]
            assert line["metrics"][f"{name}.{m['name']}"] == {
                "value": got["value"], "unit": got["unit"]}
    assert len(line["metrics"]) == len(report["workloads"]) * len(SPEC["per_layer"])


def test_layers_a_workload_bypasses_read_zero(traced_run):
    _, report = traced_run
    layers = {w: e["per_layer"] for w, e in report["workloads"].items()}

    def values(workload, prefix):
        return [m["value"] for k, m in layers[workload].items() if k.startswith(prefix)]

    for workload in ("fullmachine", "solve"):
        assert not any(values(workload, "network.")), workload
        assert not any(values(workload, "obs.")), workload
        assert min(values(workload, "sweep3d.kernel.")) > 0
    for workload in ("fullmachine", "solve", "contended"):
        assert not any(values(workload, "campaign.")), workload
    assert min(values("contended", "network.")) > 0
    assert not any(values("contended", "sweep3d.kernel."))
    assert layers["campaign"]["campaign.store.puts"]["value"] > 0
    assert layers["campaign"]["sim.run_s"]["value"] == 0
    # counts are reported as counted, never rescaled like times
    assert layers["solve"]["sweep3d.solve.iterations"]["value"] == 19
    assert layers["fullmachine"]["sim.dispatches"]["value"] == int(
        layers["fullmachine"]["sim.dispatches"]["value"])


def test_single_workload_line_uses_plain_names():
    proc, line = _cli("--workload", "solve")
    assert proc.returncode == 0, proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


# -- tracer ------------------------------------------------------------------

def _originals() -> list:
    import importlib

    found = []
    for _layer, module, qualname in TARGETS:
        cls_name, attr = qualname.split(".")
        owner = getattr(importlib.import_module(module), cls_name)
        found.append(owner.__dict__[attr])
    _layer, module, attr = KERNEL_TARGET
    found.append(getattr(importlib.import_module(module), attr))
    return found


def test_traced_op_is_bitwise_identical_and_wrappers_are_restored(tmp_path):
    workload = WORKLOADS["fullmachine"](1, True, str(tmp_path / "work"))
    before = _originals()
    plain, _ = workload.op()
    tracer = Tracer()
    with traced(tracer):
        assert _originals() != before
        traced_result, _ = workload.op()
    assert all(a is b for a, b in zip(_originals(), before))
    assert np.array_equal(plain.phi, traced_result.phi)
    assert plain.iteration_time == traced_result.iteration_time
    assert plain.messages == traced_result.messages
    layers = tracer.layers()
    assert layers["sim"]["busy_s"] > layers["sim"]["self_s"] > 0
    assert layers["comm"]["spans"] > layers["comm"]["calls"] > 0


def test_generator_proxy_forwards_interrupt():
    from repro.comm.mpi import Location, SimMPI, UniformFabric
    from repro.comm.transport import Transport
    from repro.sim.engine import Interrupt, Simulator

    sim = Simulator()
    comm = SimMPI(sim, UniformFabric(Transport("t", latency=1e-6, bandwidth=1e9)),
                  [Location(0), Location(1)])
    caught = []

    def waiter(rank):
        try:
            yield from rank.recv(source=1)
        except Interrupt as exc:
            caught.append(exc.cause)

    def interrupter(proc):
        yield sim.timeout(1.0)
        proc.interrupt("stop")

    tracer = Tracer()
    with traced(tracer):
        proc = sim.process(waiter(comm.rank(0)))
        sim.process(interrupter(proc))
        sim.run()
    assert caught == ["stop"]
    recv = tracer.by_name()["comm.Rank.recv"]
    assert recv["calls"] == 1 and recv["spans"] == 2


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", ["fullmachine", "contended", "campaign"])
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    build = WORKLOADS[name]
    workdir = str(tmp_path / "work")
    digest = [build(seed, True, workdir).inputs_digest() for seed in (1, 1, 2)]
    assert digest[0] == digest[1] != digest[2]


def test_solve_input_does_not_depend_on_the_seed(tmp_path):
    build = WORKLOADS["solve"]
    workdir = str(tmp_path / "work")
    assert (build(1, True, workdir).inputs_digest()
            == build(2, True, workdir).inputs_digest())


def test_campaign_starts_cold_over_files_a_killed_run_left(tmp_path):
    workdir = str(tmp_path / "work")
    killed = WORKLOADS["campaign"](1, True, workdir)
    killed.op()  # never closed, as when the run is killed: its store stays
    fresh = WORKLOADS["campaign"](1, True, workdir)
    raw = fresh.op()
    cold = raw[0]
    assert cold.cached_hits == 0 and cold.executed == fresh.jobs
    assert fresh.evaluate(raw).failures == []
    fresh.close()


# -- statistics --------------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert q2 == median(values) == 4.0
    assert spread(values) == pytest.approx((q3 - q1) / 4.0)
    assert summarize(values) == {"value": 4.0, "q1": q1, "q3": q3, "n": 7}


def test_single_sample_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0
    with pytest.raises(ValueError):
        median([])


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [9.0 + 0.01 * i for i in range(10)]
    slower = [12.0 + 0.01 * i for i in range(10)]
    noisy = [10.0, 14.0, 8.0, 13.0, 9.0, 15.0, 7.0, 12.0, 10.5, 11.0]
    assert verdict(parent, faster, 0.1, "lower") == "gain"
    assert verdict(parent, slower, 0.1, "lower") == "regression"
    assert verdict(parent, slower, 0.1, "higher") == "gain"
    assert verdict(parent, noisy, 0.1, "lower") == "unresolved"
    assert verdict(parent, parent, 0.1, "lower") == "same"
