"""End-to-end perf of the distributed sweep, plus its determinism oracle.

``ParallelSweep`` is the heaviest consumer of the DES kernel, SimMPI
and the transport curves at once, so it measures the composite effect
of every fast path in this package.  The smoke tier runs a small 8x4
sweep twice and asserts the full determinism contract — bit-identical
flux field, simulated iteration time and traced MPI event timeline.
A second seed oracle runs the distributed source iteration,
``solve_distributed()``, on a smaller tile through both layers and
compares flux, iteration count, simulated time and message count.
The dispatch-order oracle logs every engine dispatch of a 64-rank
sweep as ``(class, process, sim time)``, with and without a recorder
(bare receives versus ``Rank.recv`` generators), and pins the log's
hash: SimMPI's fast paths may cut host time, never move an event.
The measured tier times the same configuration against the seed
commit's ``parallel.py`` with the seed-commit ``sweep_octant`` injected
into it — the genuine pre-PR numeric stack, not the seed sweep layer
running over today's kernel — and records both wall-clock times in
``BENCH_perf.json``, holding the ISSUE's >= 2x end-to-end floor.
"""

from __future__ import annotations

import hashlib

import numpy as np

from benchmarks.framework import (
    Case,
    Floor,
    PerfTest,
    SkipCase,
    best_seconds,
    load_seed_module,
    paired_seconds,
    perftest,
)
from benchmarks.framework.pytest_bridge import install_pytest_tests
from repro.comm.cml import CellMessagePath
from repro.comm.mpi import UniformFabric
from repro.comm.transport import Transport
from repro.hardware.cell import POWERXCELL_8I
from repro.obs import ObsRecorder, span_stream
from repro.sweep3d import parallel as current_parallel
from repro.sweep3d.cellport import grind_time
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.placement import spe_locations

#: one simulated triblade: 8x4 SPE tile, reduced K extent
INP = SweepInput(it=5, jt=5, kt=40, mk=20, mmi=6)
DECOMP = Decomposition2D(8, 4)

MIN_E2E_SPEEDUP = 2.0

#: the solve oracle: converges in 18 sweeps, each cheap in the seed layer
SOLVE_INP = SweepInput(it=3, jt=3, kt=8, mk=2, mmi=3)
SOLVE_DECOMP = Decomposition2D(3, 2)

#: the dispatch-order oracle: the full-machine tile on 8x8 ranks over
#: IB (2 us, 2 GB/s), one computed and one replayed iteration
DISPATCH_INP = SweepInput(it=2, jt=2, kt=8, mk=4, mmi=2)
DISPATCH_DECOMP = Decomposition2D(8, 8)
#: SHA-256 of that run's 11,784-dispatch log, recorded before the cost
#: table, the straight-line send and the bare surface receives
DISPATCH_LOG_SHA256 = (
    "c8c11f31567ce6aec4bc3d35b0f1a5d7828ed919bf3c3cfe60f5068d79a12bff"
)


def _run(mod, **kwargs):
    sweep = mod.ParallelSweep(
        INP,
        DECOMP,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=CellMessagePath(),
        locations=spe_locations(DECOMP),
        **kwargs,
    )
    return sweep.run()


def _solve(mod):
    sweep = mod.ParallelSweep(
        SOLVE_INP,
        SOLVE_DECOMP,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=CellMessagePath(),
        locations=spe_locations(SOLVE_DECOMP),
    )
    return sweep.solve_distributed()


class _DispatchLog:
    """Engine observer logging ``(class, process, sim time)`` per
    dispatch: the event order itself, not only the times."""

    def __init__(self, sim):
        self.sim = sim
        self.entries: list[tuple[str, str | None, float]] = []

    def _note_event(self, cls_name, proc_name, _host_dt):
        self.entries.append((cls_name, proc_name, self.sim.now))


def _dispatch_log(obs) -> list[tuple[str, str | None, float]]:
    logs = []

    def hook(sim, _procs, _locations):
        # replaces the recorder as the engine's observer; the sweep and
        # the communicator still report to it
        logs.append(_DispatchLog(sim))
        sim.attach_observer(logs[-1])

    current_parallel.ParallelSweep(
        DISPATCH_INP,
        DISPATCH_DECOMP,
        1e-6,
        UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9)),
        fault_hook=hook,
        obs=obs,
    ).run(iterations=2)
    return logs[0].entries


def _load_seed_layer():
    seed = load_seed_module(
        "src/repro/sweep3d/parallel.py", "_seed_sweep3d_parallel"
    )
    if seed is None:
        raise SkipCase("seed sweep layer unavailable (no git history)")
    return seed


@perftest
class ParallelSweepDeterminism(PerfTest):
    """Smoke tier: the distributed sweep's determinism contract."""

    name = "sweep3d_parallel_determinism"
    title = "sweep3d parallel: bit-identical runs and seed-layer identity"
    tiers = ("smoke",)
    params = {"oracle": ["twice", "seed", "seed_solve", "dispatch_order"]}

    def sanity(self, case: Case):
        if case.oracle == "twice":
            mpi = {"mpi.send", "mpi.recv"}
            rec1, rec2 = ObsRecorder(categories=mpi), ObsRecorder(categories=mpi)
            r1 = _run(current_parallel, obs=rec1)
            r2 = _run(current_parallel, obs=rec2)
            assert r1.iteration_time == r2.iteration_time
            assert r1.messages == r2.messages
            assert np.array_equal(r1.phi, r2.phi)
            assert len(rec1.spans) > 0
            assert span_stream(rec1) == span_stream(rec2)
        elif case.oracle == "seed":
            # The level-batched sweep produces bit-identical results to
            # the seed commit's block-by-block sweep layer.
            seed = _load_seed_layer()
            r_seed = _run(seed)
            r_now = _run(current_parallel)
            assert r_now.iteration_time == r_seed.iteration_time
            assert r_now.messages == r_seed.messages
            assert np.array_equal(r_now.phi, r_seed.phi)
        elif case.oracle == "dispatch_order":
            # Without a recorder the sweep posts bare receives; with one
            # it runs Rank.recv generators.  Both dispatch the same
            # events in the same order, and so did the sweep before.
            bare = _dispatch_log(None)
            assert bare == _dispatch_log(ObsRecorder(categories=()))
            log = "\n".join(f"{c} {p} {t!r}" for c, p, t in bare)
            assert hashlib.sha256(log.encode()).hexdigest() == DISPATCH_LOG_SHA256
        else:
            # The distributed source iteration: the flux feeds back into
            # the next sweep's source, and the convergence test decides
            # the iteration count, so every bit has to carry over.
            seed = _load_seed_layer()
            r_seed, info_seed = _solve(seed)
            r_now, info_now = _solve(current_parallel)
            assert info_now == info_seed
            assert r_now.iterations == r_seed.iterations
            assert r_now.iteration_time == r_seed.iteration_time
            assert r_now.messages == r_seed.messages
            assert np.array_equal(r_now.phi, r_seed.phi)
        return None


@perftest
class ParallelSweepThroughput(PerfTest):
    """Measured tier: end-to-end wall-clock vs the pre-PR stack."""

    name = "sweep3d_parallel"
    title = "sweep3d parallel: end-to-end wall-clock vs the seed stack"
    tiers = ("measured",)
    section = "sweep3d_parallel"
    # Binds only when git history provides the seed baseline.
    references = {"speedup": Floor(MIN_E2E_SPEEDUP, required=False)}

    def measure(self, case: Case):
        seed = load_seed_module(
            "src/repro/sweep3d/parallel.py", "_seed_sweep3d_parallel"
        )
        metrics: dict = {}
        if seed is not None:
            seed_kernel = load_seed_module(
                "src/repro/sweep3d/kernel.py", "_seed_sweep3d_kernel_p"
            )
            if seed_kernel is not None:
                # The seed sweep layer imports the *current* kernel;
                # rebind it so the baseline is the full pre-PR stack.
                seed.sweep_octant = seed_kernel.sweep_octant
            times = paired_seconds(
                {
                    "current": lambda: _run(current_parallel),
                    "seed": lambda: _run(seed),
                },
                repeats=4,
            )
            metrics["current_s"] = round(times["current"], 4)
            metrics["seed_stack_s"] = round(times["seed"], 4)
            metrics["speedup"] = round(times["seed"] / times["current"], 2)
        else:
            metrics["current_s"] = round(
                best_seconds(lambda: _run(current_parallel), repeats=3), 4
            )
        return metrics

    def publish(self, metrics):
        return {
            "config": "8x4 SPE tile, it=jt=5 kt=40 mk=20 mmi=6",
            "min_required_speedup": MIN_E2E_SPEEDUP,
            **dict(metrics["default"]),
        }


install_pytest_tests(globals())
