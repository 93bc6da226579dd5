"""Perf of the Sweep3D numeric layer: the plan kernel, octant stacks, replay.

The smoke tier is the bit-identity contract of the sweep-plan kernel:

* the one-block ``sweep_octant`` (plain and ``fixup=True``) against the
  git-seed kernels on mixed grids (thin and thick scalar ``sigma_t``,
  degenerate 1-wide axes — the BLAS one-row reduction edge cases);
* the vacuum sweep's 8-octant stack against the seed solver's octant
  loop over the seed kernels, for both schemes, through
  ``sweep_all_octants`` (flux, leakage, reflected influx);
* the current solver stack against the seed solver driving the seed
  kernels, including reflective faces and ``face_memory`` hand-off
  across sweeps (where the octants must run in order);
* replay-mode ``run(iterations=N)`` against the full run — flux,
  message counts, bytes, iteration time, and the traced DES timeline.

The measured tier times the kernel micro-benchmark, a sequential solve,
and a replay run against the seed baselines and records them under
``sweep3d_kernel`` in ``BENCH_perf.json``.
"""

from __future__ import annotations

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
from repro.hardware.cell import POWERXCELL_8I
from repro.obs import ObsRecorder, span_stream
from repro.sweep3d.cellport import grind_time
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import sweep_octant
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.placement import spe_locations
from repro.sweep3d.quadrature import make_angle_set
from repro.sweep3d.solver import ALL_REFLECTIVE, solve, sweep_all_octants

#: (I, J, K, mmi) smoke grids: the parallel block shape, cubes, and the
#: degenerate 1-wide axes that exercise the one-row BLAS reduction path.
SMOKE_GRIDS = [
    (5, 5, 20, 6),
    (4, 4, 4, 3),
    (7, 3, 2, 6),
    (1, 4, 3, 2),
    (3, 1, 5, 4),
    (2, 2, 2, 1),
    (1, 1, 1, 1),
]

#: the sequential-solve measured workload (single K-block: pure numerics)
SOLVE_INP = SweepInput(it=16, jt=16, kt=16, mk=16, mmi=6)
SOLVE_ITERATIONS = 4

#: the replay measured workload: the perf_sweep3d_parallel configuration
REPLAY_INP = SweepInput(it=5, jt=5, kt=40, mk=20, mmi=6)
REPLAY_DECOMP = Decomposition2D(8, 4)

MIN_SOLVE_SPEEDUP = 3.0


def _seed(relpath: str, name: str):
    mod = load_seed_module(relpath, name)
    if mod is None:
        raise SkipCase("seed modules unavailable (no git history)")
    return mod


def _cases(rng, I, J, K, mmi):
    ang = make_angle_set(mmi)
    M = ang.n_angles
    src = rng.uniform(0.05, 2.0, (I, J, K))
    inflows = (
        rng.uniform(0.0, 4.0, (J, K, M)),
        rng.uniform(0.0, 4.0, (I, K, M)),
        rng.uniform(0.0, 4.0, (I, J, M)),
    )
    return ang, src, inflows, (0.75, 8.0)


def _seed_kernels() -> dict:
    """The seed commit's one-block kernels, by fixup scheme."""
    seed_kernel = _seed("src/repro/sweep3d/kernel.py", "_seed_s3d_kernel")
    seed_fixup = _seed("src/repro/sweep3d/fixup.py", "_seed_s3d_fixup")
    return {False: seed_kernel.sweep_octant, True: seed_fixup.sweep_octant_fixup}


def _check_plan_kernels_vs_seed():
    seed = _seed_kernels()
    rng = np.random.default_rng(31)
    for I, J, K, mmi in SMOKE_GRIDS:
        ang, src, inflows, sigmas = _cases(rng, I, J, K, mmi)
        for sigma in sigmas:
            for fixup, then in seed.items():
                got = sweep_octant(sigma, src, 0.3, 0.4, 0.5, ang, *inflows,
                                   fixup=fixup)
                want = then(sigma, src, 0.3, 0.4, 0.5, ang, *inflows)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (fixup, sigma, I, J, K, mmi)


def _check_vacuum_stack_vs_seed_loop():
    """The vacuum sweep's 8-octant stack and the seed solver's octant
    loop are the same sweep: identical flux, leakage and (zero)
    reflected influx, both schemes.  At ``sigma_t = 1`` the seed
    fixup's three-pass cap never binds."""
    seed_solver = _seed("src/repro/sweep3d/solver.py", "_seed_s3d_solver")
    seed = _seed_kernels()
    rng = np.random.default_rng(32)
    for I, J, K, mmi in SMOKE_GRIDS:
        inp = SweepInput(it=I, jt=J, kt=K, mk=K, mmi=mmi, sigma_t=1.0)
        ang = make_angle_set(mmi)
        src = rng.uniform(0.05, 2.0, (I, J, K))
        for fixup, then in seed.items():
            got = sweep_all_octants(inp, src, ang, fixup=fixup)
            want = seed_solver.sweep_all_octants(inp, src, ang, kernel=then)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]
            assert got[2] == want[2]


def _check_solver_stack_vs_seed():
    """The full current stack (the stacked kernel) against the seed
    solver driving the seed kernels — vacuum, reflective, and
    fixup-with-face-memory sweeps."""
    seed_solver = _seed("src/repro/sweep3d/solver.py", "_seed_s3d_solver")
    seed = _seed_kernels()
    inp = SweepInput(it=5, jt=4, kt=6, mk=6, mmi=6, sigma_t=2.0, sigma_s=0.8)
    ang = make_angle_set(inp.mmi)
    src = np.full((inp.it, inp.jt, inp.kt), inp.q)
    for reflective in (frozenset(), ALL_REFLECTIVE):
        for fixup, then_kernel in seed.items():
            mem_now: dict = {}
            mem_then: dict = {}
            for _sweep in range(3):  # face_memory hand-off across sweeps
                got = sweep_all_octants(
                    inp, src, ang, fixup=fixup,
                    reflective=reflective, face_memory=mem_now,
                )
                want = seed_solver.sweep_all_octants(
                    inp, src, ang, kernel=then_kernel,
                    reflective=reflective, face_memory=mem_then,
                )
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1] and got[2] == want[2]


def _replay_run(replay: bool, iterations: int = 3):
    rec = ObsRecorder(categories={"mpi.send", "mpi.recv"})
    sweep = ParallelSweep(
        SweepInput(it=3, jt=3, kt=8, mk=2, mmi=2),
        Decomposition2D(4, 2),
        grind_time=grind_time(POWERXCELL_8I),
        fabric=CellMessagePath(),
        locations=spe_locations(Decomposition2D(4, 2)),
        obs=rec,
    )
    return sweep.run(iterations=iterations, replay=replay), rec


def _check_replay_vs_full_run():
    """Replay mode is pure bookkeeping: flux, message counts, bytes,
    iteration time and the traced DES timeline all match the full run
    bit for bit."""
    full, rec_full = _replay_run(replay=False)
    fast, rec_fast = _replay_run(replay=True)
    assert np.array_equal(full.phi, fast.phi)
    assert full.iteration_time == fast.iteration_time
    assert full.messages == fast.messages
    assert full.bytes_sent == fast.bytes_sent
    assert full.compute_time_per_rank == fast.compute_time_per_rank
    assert len(rec_full.spans) > 0
    assert span_stream(rec_full) == span_stream(rec_fast)


@perftest
class SweepKernelIdentity(PerfTest):
    """Smoke tier: the rewrite's bit-identity contract."""

    name = "sweep3d_kernel_identity"
    title = "sweep3d: plan kernel, vacuum stack, solver stack, replay identity"
    tiers = ("smoke",)
    params = {
        "check": ["plan_kernels", "vacuum_stack", "solver_stack", "replay"]
    }

    _CHECKS = {
        "plan_kernels": _check_plan_kernels_vs_seed,
        "vacuum_stack": _check_vacuum_stack_vs_seed_loop,
        "solver_stack": _check_solver_stack_vs_seed,
        "replay": _check_replay_vs_full_run,
    }

    def sanity(self, case: Case):
        self._CHECKS[case.check]()
        return None


# -- measured tier -------------------------------------------------------------

def _kernel_micro(kernel, n_calls: int = 64):
    ang = make_angle_set(6)
    I, J, K, M = 5, 5, 20, ang.n_angles
    src = np.full((I, J, K), 1.0)
    ins = (np.zeros((J, K, M)), np.zeros((I, K, M)), np.zeros((I, J, M)))
    def run():
        for _ in range(n_calls):
            kernel(1.0, src, 0.1, 0.1, 0.1, ang, *ins)
    return run


def _solve_current():
    return solve(SOLVE_INP, max_iterations=SOLVE_ITERATIONS)


def _make_solve_seed(seed_solver, seed_kernel):
    # The seed solver's module-level `sweep_octant` import resolves to
    # the *current* kernel; rebind it so the baseline is the real
    # seed-era numeric stack.
    seed_solver.sweep_octant = seed_kernel.sweep_octant
    return lambda: seed_solver.solve(SOLVE_INP, max_iterations=SOLVE_ITERATIONS)


def _parallel_replay_run():
    sweep = ParallelSweep(
        REPLAY_INP,
        REPLAY_DECOMP,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=CellMessagePath(),
        locations=spe_locations(REPLAY_DECOMP),
    )
    return sweep.run(iterations=8, replay=True)


@perftest
class SweepKernelThroughput(PerfTest):
    """Measured tier: kernel micro, sequential solve, replay run."""

    name = "sweep3d_kernel"
    title = "sweep3d: kernel/solve/replay wall-clock vs the seed stack"
    tiers = ("measured",)
    section = "sweep3d_kernel"
    # The floor binds only when git history provides the seed baseline,
    # exactly like the old `if "solve_speedup" in payload` guard.
    references = {"solve_speedup": Floor(MIN_SOLVE_SPEEDUP, required=False)}

    def measure(self, case: Case):
        seed_solver = load_seed_module(
            "src/repro/sweep3d/solver.py", "_seed_s3d_solver_m"
        )
        seed_kernel = load_seed_module(
            "src/repro/sweep3d/kernel.py", "_seed_s3d_kernel_m"
        )
        metrics: dict = {}
        if seed_kernel is not None:
            micro = paired_seconds(
                {
                    "current": _kernel_micro(sweep_octant),
                    "seed": _kernel_micro(seed_kernel.sweep_octant),
                },
                repeats=5,
            )
            metrics["kernel_current_s"] = round(micro["current"], 4)
            metrics["kernel_seed_s"] = round(micro["seed"], 4)
            metrics["kernel_speedup"] = round(micro["seed"] / micro["current"], 2)
        if seed_solver is not None and seed_kernel is not None:
            times = paired_seconds(
                {
                    "current": _solve_current,
                    "seed": _make_solve_seed(seed_solver, seed_kernel),
                },
                repeats=3,
            )
            metrics["solve_current_s"] = round(times["current"], 4)
            metrics["solve_seed_s"] = round(times["seed"], 4)
            metrics["solve_speedup"] = round(times["seed"] / times["current"], 2)
        metrics["replay_run8_s"] = round(
            best_seconds(_parallel_replay_run, repeats=3), 4
        )
        return metrics

    def publish(self, metrics):
        return {
            "config": (
                f"kernel: 5x5x20 block x64 calls; solve: it=jt=kt=16 mmi=6 "
                f"x{SOLVE_ITERATIONS} iterations; replay: 8x4 ranks x8 iterations"
            ),
            "min_required_solve_speedup": MIN_SOLVE_SPEEDUP,
            **dict(metrics["default"]),
        }


install_pytest_tests(globals())
