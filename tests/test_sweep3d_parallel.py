"""Tests for the distributed KBA sweep: numerics match the sequential
solver; simulated timing matches the analytic wavefront model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.framework.gitseed import load_seed_module
from repro.comm.mpi import Location, UniformFabric
from repro.comm.transport import Transport
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import bind_octant_kernel, sweep_octant
from repro.sweep3d.parallel import ParallelSweep, SweepAborted
from repro.sweep3d.perfmodel import SweepMachineParams, WavefrontModel
from repro.sweep3d.plan import get_plan
from repro.sweep3d.quadrature import OCTANTS, make_angle_set
from repro.sweep3d.solver import sweep_all_octants
from repro.units import US

FREE_FABRIC = UniformFabric(Transport("free", latency=1e-12, bandwidth=1e18))


def sequential_global(inp, decomp):
    """The sequential sweep of the assembled global problem."""
    global_inp = inp.with_subgrid(
        inp.it * decomp.npe_i, inp.jt * decomp.npe_j, inp.kt
    )
    ang = make_angle_set(inp.mmi)
    src = np.full((global_inp.it, global_inp.jt, global_inp.kt), inp.q)
    phi, _, _ = sweep_all_octants(global_inp, src, ang)
    return phi


# --- decomposition -----------------------------------------------------------------

def test_decomposition_coords_roundtrip():
    dec = Decomposition2D(4, 3)
    for rank in range(dec.size):
        pi, pj = dec.coords(rank)
        assert dec.rank_of(pi, pj) == rank
    with pytest.raises(ValueError):
        dec.coords(12)
    with pytest.raises(ValueError):
        dec.rank_of(4, 0)


def test_decomposition_neighbours():
    dec = Decomposition2D(3, 3)
    center = dec.rank_of(1, 1)
    assert dec.upstream_i(center, +1) == dec.rank_of(0, 1)
    assert dec.downstream_i(center, +1) == dec.rank_of(2, 1)
    assert dec.upstream_i(center, -1) == dec.rank_of(2, 1)
    assert dec.upstream_j(center, +1) == dec.rank_of(1, 0)
    corner = dec.rank_of(0, 0)
    assert dec.upstream_i(corner, +1) is None
    assert dec.upstream_j(corner, +1) is None
    assert dec.downstream_i(dec.rank_of(2, 0), +1) is None


@pytest.mark.parametrize("npe_i,npe_j", [(1, 1), (1, 5), (4, 3), (60, 51)])
def test_neighbours_match_the_four_helpers(npe_i, npe_j):
    dec = Decomposition2D(npe_i, npe_j)
    for rank in range(dec.size):
        assert list(dec.neighbours(rank)) == [
            (o.id, dec.upstream_i(rank, o.sx), dec.downstream_i(rank, o.sx),
             dec.upstream_j(rank, o.sy), dec.downstream_j(rank, o.sy))
            for o in OCTANTS
        ]
    with pytest.raises(ValueError):
        list(dec.neighbours(dec.size))


def test_near_square_factorization():
    assert Decomposition2D.near_square(32) == Decomposition2D(8, 4)
    assert Decomposition2D.near_square(36) == Decomposition2D(6, 6)
    assert Decomposition2D.near_square(7) == Decomposition2D(7, 1)
    assert Decomposition2D.near_square(1) == Decomposition2D(1, 1)
    with pytest.raises(ValueError):
        Decomposition2D.near_square(0)


def test_pipeline_depth():
    assert Decomposition2D(8, 4).pipeline_depth == 10
    assert Decomposition2D(1, 1).pipeline_depth == 0


# --- numerics: distributed == sequential ------------------------------------------------

@pytest.mark.parametrize("npe", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 4)])
def test_parallel_flux_matches_sequential(npe):
    inp = SweepInput(it=3, jt=4, kt=6, mk=2, mmi=3)
    dec = Decomposition2D(*npe)
    sweep = ParallelSweep(inp, dec, grind_time=1e-9, fabric=FREE_FABRIC)
    result = sweep.run()
    expected = sequential_global(inp, dec)
    np.testing.assert_allclose(result.phi, expected, rtol=1e-12, atol=1e-13)


def test_parallel_flux_independent_of_transport_speed():
    """Changing link speeds must change time, never physics."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    slow = UniformFabric(Transport("slow", latency=1e-3, bandwidth=1e6))
    phi_fast = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run().phi
    slow_result = ParallelSweep(inp, dec, 1e-9, slow).run()
    np.testing.assert_array_equal(phi_fast, slow_result.phi)


def test_parallel_multiple_iterations_amortize_fill():
    """Per-iteration time with more iterations is at most the single-
    iteration time (the drain of one iteration overlaps the next fill)
    and at least the pure work time."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    grind = 1e-6
    sweep = ParallelSweep(inp, dec, grind_time=grind, fabric=FREE_FABRIC)
    one = sweep.run(iterations=1)
    three = sweep.run(iterations=3)
    work_only = 8 * inp.k_blocks * inp.block_angle_work() * grind
    assert three.iterations == 3
    assert work_only <= three.iteration_time <= one.iteration_time * (1 + 1e-9)


def test_parallel_message_statistics():
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    result = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run()
    # Each octant: 2 k-blocks; boundary links: 2 i-links + 2 j-links,
    # each carrying one message per block per octant.
    expected_msgs = 8 * 2 * (2 + 2)
    assert result.messages == expected_msgs
    surface_bytes = 2 * 2 * 2 * 8  # jt*mk*M*8 == it*mk*M*8 here
    assert result.bytes_sent == expected_msgs * surface_bytes


def test_parallel_validates_arguments():
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    for grind in (0.0, float("inf"), float("nan"), [1e-9, 1e-9, 1e-9, float("nan")]):
        with pytest.raises(ValueError):
            ParallelSweep(inp, dec, grind_time=grind, fabric=FREE_FABRIC)
    with pytest.raises(ValueError):
        ParallelSweep(inp, dec, 1e-9, FREE_FABRIC, locations=[Location(0)])
    sweep = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC)
    with pytest.raises(ValueError):
        sweep.run(iterations=0)
    with pytest.raises(ValueError):
        sweep.run(source=np.ones((1, 1, 1)))


@pytest.mark.parametrize(
    "timeout", [float("nan"), float("inf"), 0.0, -1.0, -float("inf")]
)
def test_recv_timeout_checked_at_construction(timeout):
    """A bad receive bound is a bad argument, refused by the
    constructor; inside the run it would surface as a fault (a
    ``SweepAborted`` at t=0) or only from the first bounded receive."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    with pytest.raises(ValueError, match="recv_timeout"):
        ParallelSweep(inp, Decomposition2D(2, 2), 1e-9, FREE_FABRIC,
                      recv_timeout=timeout)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_parallel_rejects_non_finite_source(value):
    """One bad cell would otherwise spread to every flux cell, with no
    error, as ``solve(external_source=)`` already refuses."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    sweep = ParallelSweep(inp, Decomposition2D(2, 2), 1e-9, FREE_FABRIC)
    source = np.ones((2, 2, 4))
    source[1, 0, 3] = value
    with pytest.raises(ValueError, match="finite"):
        sweep.run(source=source)


def test_parallel_custom_source():
    inp = SweepInput(it=2, jt=2, kt=2, mk=1, mmi=2)
    dec = Decomposition2D(1, 1)
    src = np.arange(8, dtype=float).reshape(2, 2, 2)
    result = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run(source=src)
    ang = make_angle_set(2)
    expected, _, _ = sweep_all_octants(inp, src, ang)
    np.testing.assert_allclose(result.phi, expected, rtol=1e-13)


# --- timing: DES vs analytic model --------------------------------------------------------

def test_single_rank_time_is_pure_compute():
    inp = SweepInput(it=2, jt=2, kt=8, mk=2, mmi=2)
    dec = Decomposition2D(1, 1)
    grind = 1e-6
    result = ParallelSweep(inp, dec, grind, FREE_FABRIC).run()
    expected = 8 * inp.k_blocks * inp.block_angle_work() * grind
    assert result.iteration_time == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("npe", [(2, 2), (4, 4), (6, 6)])
def test_des_matches_wavefront_model_square_arrays(npe):
    """The analytic model's fills=2.5 is exact for square arrays with
    negligible communication."""
    inp = SweepInput(it=2, jt=2, kt=10, mk=2, mmi=1)
    dec = Decomposition2D(*npe)
    grind = 1.0 / inp.block_angle_work()  # block time = 1 s
    des = ParallelSweep(inp, dec, grind, FREE_FABRIC).run().iteration_time
    params = SweepMachineParams("test", grind, Transport("free", 1e-12, 1e18))
    model = WavefrontModel(inp, dec, params).iteration_time()
    assert des == pytest.approx(model, rel=1e-6)


def test_des_vs_model_with_real_communication():
    """With a latency/bandwidth transport the two-term model (work pays
    serialization, fill pays full latency) tracks the DES closely."""
    inp = SweepInput(it=3, jt=3, kt=8, mk=2, mmi=2)
    dec = Decomposition2D(4, 4)
    grind = 50e-9
    transport = Transport("ib-ish", latency=2.16 * US, bandwidth=1e9)
    des = ParallelSweep(inp, dec, grind, UniformFabric(transport)).run().iteration_time
    model = WavefrontModel(
        inp, dec, SweepMachineParams("test", grind, transport)
    ).iteration_time()
    assert des == pytest.approx(model, rel=0.02)


def test_des_vs_model_latency_dominated():
    """Fill-dominated regime: pipeline deeper than per-octant work."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=1)
    dec = Decomposition2D(8, 8)
    grind = 100e-9
    transport = Transport("lat", latency=5 * US, bandwidth=1e9)
    des = ParallelSweep(inp, dec, grind, UniformFabric(transport)).run().iteration_time
    model = WavefrontModel(
        inp, dec, SweepMachineParams("test", grind, transport)
    ).iteration_time()
    assert des == pytest.approx(model, rel=0.10)


def test_model_elongated_arrays_underestimates_slightly():
    """For elongated arrays the DES sits at or above the fills=2.5
    model, by less than 15%."""
    inp = SweepInput(it=2, jt=2, kt=10, mk=2, mmi=1)
    for npe in [(8, 1), (16, 2)]:
        dec = Decomposition2D(*npe)
        grind = 1.0 / inp.block_angle_work()
        des = ParallelSweep(inp, dec, grind, FREE_FABRIC).run().iteration_time
        params = SweepMachineParams("test", grind, Transport("free", 1e-12, 1e18))
        model = WavefrontModel(inp, dec, params).iteration_time()
        assert model <= des * (1 + 1e-9)
        assert des <= model * 1.15


# --- distributed source iteration ------------------------------------------------

def test_solve_distributed_matches_sequential_solver():
    """The full distributed source iteration converges to the same flux
    as the sequential solver — scattering update, convergence test and
    all."""
    from repro.sweep3d.solver import solve
    import dataclasses

    inp = SweepInput(it=3, jt=3, kt=4, mk=2, mmi=3, sigma_t=1.0, sigma_s=0.5)
    dec = Decomposition2D(2, 2)
    sweep = ParallelSweep(inp, dec, grind_time=1e-9, fabric=FREE_FABRIC)
    result, info = sweep.solve_distributed(max_iterations=100)
    assert info["converged"]

    global_inp = dataclasses.replace(
        inp, it=inp.it * 2, jt=inp.jt * 2
    )
    sequential = solve(global_inp, max_iterations=100)
    assert info["iterations"] == sequential.iterations
    np.testing.assert_allclose(result.phi, sequential.phi, rtol=1e-11, atol=1e-12)


def test_solve_distributed_reports_nonconvergence():
    inp = SweepInput(it=2, jt=2, kt=2, mk=1, mmi=2, sigma_t=1.0, sigma_s=0.9)
    dec = Decomposition2D(2, 1)
    sweep = ParallelSweep(inp, dec, grind_time=1e-9, fabric=FREE_FABRIC)
    _result, info = sweep.solve_distributed(max_iterations=2)
    assert not info["converged"]
    assert info["iterations"] == 2


def test_solve_distributed_validation():
    inp = SweepInput(it=2, jt=2, kt=2, mk=1, mmi=2)
    sweep = ParallelSweep(inp, Decomposition2D(1, 1), 1e-9, FREE_FABRIC)
    with pytest.raises(ValueError):
        sweep.solve_distributed(max_iterations=0)


def test_solve_distributed_reports_time_unmoved_by_recv_timeout():
    """Bounded receives leave timers behind; the solve must stop at the
    last rank's finish, not after draining them."""
    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=1)
    dec = Decomposition2D(2, 2)
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    plain, info = ParallelSweep(inp, dec, 1e-6, fabric).solve_distributed(16)
    bounded, bounded_info = ParallelSweep(
        inp, dec, 1e-6, fabric, recv_timeout=1.0
    ).solve_distributed(16)
    assert bounded_info == info
    assert bounded.iteration_time == plain.iteration_time
    assert bounded.messages == plain.messages
    np.testing.assert_array_equal(bounded.phi, plain.phi)


def test_solve_distributed_fault_aborts_with_progress():
    """The fault hook is wired into the solve, and a dead rank ends it
    in SweepAborted carrying the survivors' completed iterations."""
    from repro.resilience import DeliveryPolicy, FabricHealth, FaultInjector

    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=1)
    dec = Decomposition2D(2, 2)
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    clean, _info = ParallelSweep(inp, dec, 1e-6, fabric).solve_distributed(16)
    it_time = clean.iteration_time
    health = FabricHealth()
    hooked = []

    def hook(sim, procs, locs):
        hooked.append(len(procs))
        injector = FaultInjector(sim, health=health)
        injector.watch(3, procs[3])
        injector.fail_node_at(2.5 * it_time, 3)

    sweep = ParallelSweep(
        inp, dec, 1e-6, fabric, delivery=DeliveryPolicy(health=health),
        recv_timeout=2.0 * it_time, fault_hook=hook,
    )
    with pytest.raises(SweepAborted) as exc:
        sweep.solve_distributed(16)
    assert hooked == [dec.size]
    assert 1 <= exc.value.completed_iterations <= 2
    assert exc.value.sim_time < 16 * it_time


def test_solve_distributed_allreduce_honours_recv_timeout():
    """A rank that dies as the others enter the convergence allreduce
    ends the solve within the receive bound (fault + 2 timeouts), not
    once a survivor's send retries to it run out."""
    from repro.obs import ObsRecorder
    from repro.resilience import DeliveryPolicy, FabricHealth, FaultInjector

    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    rec = ObsRecorder(categories={"mpi.collective"})
    clean, _info = ParallelSweep(
        inp, dec, 1e-6, fabric, obs=rec
    ).solve_distributed(16)
    # rank 3's node fails the instant rank 2 enters its first allreduce
    fault_at = min(span.t0 for span in rec.spans if span.track == 2)
    timeout = 2.0 * clean.iteration_time
    health = FabricHealth()

    def hook(sim, procs, locs):
        injector = FaultInjector(sim, health=health)
        injector.watch(3, procs[3])
        injector.fail_node_at(fault_at, 3)

    sweep = ParallelSweep(
        inp, dec, 1e-6, fabric, delivery=DeliveryPolicy(health=health),
        recv_timeout=timeout, fault_hook=hook,
    )
    with pytest.raises(SweepAborted) as exc:
        sweep.solve_distributed(16)
    assert exc.value.completed_iterations == 0
    assert exc.value.sim_time <= fault_at + 2 * timeout


def test_solve_distributed_delivery_failure_is_sweep_aborted():
    """A send that exhausts its retries aborts the solve (it used to
    escape as a bare DeliveryError)."""
    from repro.resilience import DeliveryPolicy, FabricHealth

    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=1)
    health = FabricHealth()
    health.fail_node(1)
    sweep = ParallelSweep(
        inp, Decomposition2D(2, 2), 1e-6, FREE_FABRIC,
        delivery=DeliveryPolicy(health=health, max_retries=2),
    )
    with pytest.raises(SweepAborted) as exc:
        sweep.solve_distributed(4)
    assert exc.value.completed_iterations == 0
    assert exc.value.retries > 0


# --- the block graph: one kernel call per wavefront level -------------------------

def _trace_kernel_calls(monkeypatch) -> list:
    """Wrap the binder the way ``benchmarks/e2e/tracer.py`` does:
    looked up on the module, the bound kernel called positionally, one
    count of ``args[0].size * args[-1].shape[-1]`` cell-angles per call."""
    from repro.sweep3d import parallel

    cell_angles: list = []
    bind = parallel.bind_octant_kernel

    def traced_bind(*args, **kwargs):
        kernel = bind(*args, **kwargs)

        def traced_kernel(*kargs):
            cell_angles.append(kargs[0].size * kargs[-1].shape[-1])
            return kernel(*kargs)
        return traced_kernel

    monkeypatch.setattr(parallel, "bind_octant_kernel", traced_bind)
    return cell_angles


@pytest.mark.parametrize("npe", [(1, 1), (3, 2), (2, 5)])
def test_run_calls_the_kernel_once_per_wavefront_level(monkeypatch, npe):
    inp = SweepInput(it=2, jt=3, kt=6, mk=2, mmi=2)
    dec = Decomposition2D(*npe)
    cell_angles = _trace_kernel_calls(monkeypatch)
    result = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run(iterations=3)
    assert len(cell_angles) == dec.npe_i + dec.npe_j + inp.k_blocks - 2
    M = make_angle_set(inp.mmi).n_angles
    assert sum(cell_angles) == dec.size * 8 * inp.it * inp.jt * inp.kt * M
    np.testing.assert_allclose(
        result.phi, sequential_global(inp, dec), rtol=1e-12, atol=1e-13
    )


def test_solve_distributed_batches_each_iteration(monkeypatch):
    """Each iteration's blocks go through a few level-batched calls, not
    one call per block."""
    inp = SweepInput(it=2, jt=2, kt=8, mk=2, mmi=2)
    dec = Decomposition2D(2, 2)
    cell_angles = _trace_kernel_calls(monkeypatch)
    _result, info = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).solve_distributed()
    M = make_angle_set(inp.mmi).n_angles
    levels = dec.npe_i + dec.npe_j + inp.k_blocks - 2
    assert info["iterations"] * levels <= len(cell_angles)
    assert len(cell_angles) < info["iterations"] * 8 * inp.k_blocks
    assert sum(cell_angles) == (
        info["iterations"] * dec.size * 8 * inp.it * inp.jt * inp.kt * M
    )


@pytest.fixture(scope="module")
def seed_sweep_octant():
    """The seed commit's one-block kernel: an independent bitwise oracle."""
    seed = load_seed_module("src/repro/sweep3d/kernel.py", "_seed_s3d_kernel_t")
    if seed is None:
        pytest.skip("seed kernel unavailable (no git history)")
    return seed.sweep_octant


@settings(deadline=None, max_examples=40)
@given(
    I=st.integers(1, 6), J=st.integers(1, 6), K=st.integers(1, 6),
    M=st.integers(1, 6), R=st.integers(1, 4), seed=st.integers(0, 2**16),
    sigma=st.sampled_from([0.75, 8.0]), fixup=st.booleans(),
)
def test_stacked_bound_kernel_matches_sweep_octant_bitwise(
    seed_sweep_octant, I, J, K, M, R, seed, sigma, fixup
):
    """R blocks through one stacked call equal R one-block sweeps bit
    for bit: singleton steps, one-row fix-ups and M = 1 included.  Plain
    blocks are checked against the seed commit's kernel; fixup blocks
    against one-block calls of the same kernel (the seed's three-pass
    fixup cap could leave a negative the kernel now corrects)."""
    rng = np.random.default_rng(seed)
    ang = make_angle_set(M)
    kernel = bind_octant_kernel(
        sigma, 0.3, 0.4, 0.5, ang, get_plan(I, J, K, M), fixup=fixup
    )
    src = rng.uniform(0.05, 2.0, (R, I, J, K))
    ins = (rng.uniform(0.0, 4.0, (R, J, K, M)), rng.uniform(0.0, 4.0, (R, I, K, M)),
           rng.uniform(0.0, 4.0, (R, I, J, M)))
    got = kernel(src, *ins)
    for r in range(R):
        args = (sigma, src[r], 0.3, 0.4, 0.5, ang, ins[0][r], ins[1][r], ins[2][r])
        want = sweep_octant(*args, fixup=True) if fixup else seed_sweep_octant(*args)
        for g, w in zip(got, want):
            assert np.array_equal(g[r], w)


@settings(deadline=None, max_examples=25)
@given(
    shape=st.sampled_from(["1xN", "Nx1", "3x5"]), n=st.integers(2, 5),
    it=st.integers(1, 3), jt=st.integers(1, 3), mk=st.integers(1, 3),
    k_blocks=st.integers(2, 3), mmi=st.integers(1, 3),
)
def test_run_matches_sequential_over_decompositions(shape, n, it, jt, mk, k_blocks, mmi):
    npe = {"1xN": (1, n), "Nx1": (n, 1), "3x5": (3, 5)}[shape]
    inp = SweepInput(it=it, jt=jt, kt=mk * k_blocks, mk=mk, mmi=mmi)
    dec = Decomposition2D(*npe)
    result = ParallelSweep(inp, dec, 1e-9, FREE_FABRIC).run(
        iterations=2, replay=False
    )
    np.testing.assert_allclose(
        result.phi, sequential_global(inp, dec), rtol=1e-12, atol=1e-13
    )
