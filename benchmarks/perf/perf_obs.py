"""Perf contract of the observability layer.

Two halves of the overhead contract (see ``docs/OBSERVABILITY.md``):

* **disabled** (``obs=None``, the default): the simulated timeline is
  bit-identical to the seed commit's uninstrumented sweep layer;
* **enabled**: recording never perturbs the simulation — the simulated
  results are bit-identical to the disabled run, and the span stream
  itself is deterministic (same scenario twice => identical streams).

The measured tier times enabled vs disabled on the same configuration
and records the host-time overhead ratio in ``BENCH_perf.json``.
"""

from __future__ import annotations

import numpy as np

from benchmarks.framework import (
    Case,
    Ceiling,
    PerfTest,
    SkipCase,
    load_seed_module,
    paired_seconds,
    perftest,
)
from benchmarks.framework.pytest_bridge import install_pytest_tests
from repro.comm.mpi import UniformFabric
from repro.comm.transport import Transport
from repro.obs import ObsRecorder, span_stream
from repro.sweep3d import parallel as current_parallel
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput

INP = SweepInput(it=4, jt=4, kt=16, mk=4, mmi=2)
DECOMP = Decomposition2D(4, 4)
ITERATIONS = 3

MAX_OVERHEAD_RATIO = 10.0


def _run(mod, obs=None):
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    sweep = mod.ParallelSweep(
        INP, DECOMP, 1e-6, fabric,
        **({"obs": obs} if obs is not None else {}),
    )
    return sweep.run(iterations=ITERATIONS)


@perftest
class ObsContract(PerfTest):
    """Smoke tier: recording never perturbs the simulated results."""

    name = "obs_contract"
    title = "obs: zero-perturbation and determinism of the recorder"
    tiers = ("smoke",)
    params = {
        "check": [
            "disabled_matches_seed",
            "enabled_does_not_perturb",
            "span_stream_deterministic",
        ]
    }

    def sanity(self, case: Case):
        if case.check == "disabled_matches_seed":
            # obs=None (the default) reproduces the seed commit's
            # simulated timeline bit for bit.
            seed = load_seed_module(
                "src/repro/sweep3d/parallel.py", "_seed_obs_parallel"
            )
            if seed is None:
                raise SkipCase("seed sweep layer unavailable (no git history)")
            r_seed = _run(seed)
            r_now = _run(current_parallel)
            assert r_now.iteration_time == r_seed.iteration_time
            assert r_now.messages == r_seed.messages
            assert r_now.bytes_sent == r_seed.bytes_sent
            assert np.array_equal(r_now.phi, r_seed.phi)
        elif case.check == "enabled_does_not_perturb":
            r_plain = _run(current_parallel)
            rec = ObsRecorder()
            r_obs = _run(current_parallel, obs=rec)
            assert r_obs.iteration_time == r_plain.iteration_time
            assert r_obs.messages == r_plain.messages
            assert r_obs.bytes_sent == r_plain.bytes_sent
            assert np.array_equal(r_obs.phi, r_plain.phi)
            assert len(rec.spans) > 0
            assert rec.counter_total("mpi.messages") == r_plain.messages
        else:
            rec1, rec2 = ObsRecorder(), ObsRecorder()
            _run(current_parallel, obs=rec1)
            _run(current_parallel, obs=rec2)
            assert span_stream(rec1) == span_stream(rec2)
        return None


@perftest
class ObsOverhead(PerfTest):
    """Measured tier: enabled-vs-disabled host-time ratio.

    The bound is deliberately loose (recording appends a span per
    message/block and routes the engine through the generic dispatch
    loop); the contract that matters — disabled costs nothing — is
    covered by the timeline-identity smoke cases and the allocation
    slopes in ``perf_resilience.py``.
    """

    name = "obs_overhead"
    title = "obs: host-time overhead of an enabled recorder"
    tiers = ("measured",)
    section = "obs_overhead"
    references = {"overhead_ratio": Ceiling(MAX_OVERHEAD_RATIO)}

    def measure(self, case: Case):
        times = paired_seconds(
            {
                "disabled": lambda: _run(current_parallel),
                "enabled": lambda: _run(current_parallel, obs=ObsRecorder()),
            },
            repeats=4,
        )
        return {
            "disabled_s": round(times["disabled"], 4),
            "enabled_s": round(times["enabled"], 4),
            "overhead_ratio": round(times["enabled"] / times["disabled"], 2),
        }

    def publish(self, metrics):
        return {
            "config": "4x4 ranks, it=jt=4 kt=16 mk=4 mmi=2, 3 iterations",
            **dict(metrics["default"]),
        }


install_pytest_tests(globals())
