"""The determinism contract, end to end.

The kernel promises (see the contract in :mod:`repro.sim.engine`) that
two runs of the same model visit identical events at identical times.
These tests exercise the promise through the layers above the kernel:
a seeded random all-to-all over SimMPI and the full distributed sweep,
each run twice and compared span-for-span via the recorded MPI
send and receive spans.  At
the kernel itself, a mixed workload is checked against the seed engine
from git history, and observed against unobserved.
"""

import random

import numpy as np
import pytest

from benchmarks.framework.gitseed import load_seed_engine
from repro.comm.mpi import Location, SimMPI, UniformFabric
from repro.comm.transport import Transport
from repro.hardware.cell import POWERXCELL_8I
from repro.obs import ObsRecorder
from repro.sim import Simulator
from repro.sweep3d.cellport import grind_time
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.parallel import ParallelSweep
from repro.sweep3d.placement import cell_fabric, spe_locations
from repro.units import US

N_RANKS = 8
SEED = 0x5EED


def _mpi_recorder() -> ObsRecorder:
    return ObsRecorder(categories={"mpi.send", "mpi.recv"})


def _traffic_plan(seed):
    """Per-rank (dest, size, delay) message plans drawn from a seeded
    RNG, plus how many messages each rank will be sent."""
    plans = []
    incoming = [0] * N_RANKS
    for src in range(N_RANKS):
        rng = random.Random(seed + src)
        plan = []
        for _ in range(20):
            dest = rng.randrange(N_RANKS - 1)
            if dest >= src:
                dest += 1
            plan.append((dest, rng.randrange(1, 100_000), rng.random() * 10 * US))
            incoming[dest] += 1
        plans.append(plan)
    return plans, incoming


def _random_traffic_run(seed, pool_size=None):
    """A seeded random message storm over SimMPI, returning its send and
    receive spans.  Every rank replays its plan — jittered sends to
    random peers — then drains exactly the messages addressed to it."""
    plans, incoming = _traffic_plan(seed)
    sim = Simulator() if pool_size is None else Simulator(pool_size=pool_size)
    fabric = UniformFabric(Transport("test", latency=2 * US, bandwidth=1e9))
    rec = _mpi_recorder()
    comm = SimMPI(
        sim, fabric, [Location(node=i) for i in range(N_RANKS)], obs=rec
    )

    def body(rank):
        for i, (dest, size, delay) in enumerate(plans[rank.index]):
            yield rank.sim.timeout(delay)
            yield from rank.send(dest, size=size, tag=i % 4, payload=(rank.index, i))
        for _ in range(incoming[rank.index]):
            yield from rank.recv()

    for r in range(comm.size):
        sim.process(body(comm.rank(r)), name=f"rank{r}")
    sim.run()
    return rec.spans, sim.now


def _sweep_run():
    inp = SweepInput(it=3, jt=3, kt=16, mk=4, mmi=2)
    decomp = Decomposition2D(4, 2)
    rec = _mpi_recorder()
    result = ParallelSweep(
        inp,
        decomp,
        grind_time=grind_time(POWERXCELL_8I),
        fabric=cell_fabric(),
        locations=spe_locations(decomp),
        obs=rec,
    ).run()
    return result, rec.spans


def test_seeded_simmpi_traffic_is_bit_identical():
    records_a, now_a = _random_traffic_run(SEED)
    records_b, now_b = _random_traffic_run(SEED)
    assert now_a == now_b
    assert len(records_a) > 0
    assert records_a == records_b  # SpanRecord is a frozen dataclass


def test_different_seed_changes_the_timeline():
    """Sanity check on the oracle itself: the comparison is strong
    enough to notice a different schedule."""
    records_a, _ = _random_traffic_run(SEED)
    records_b, _ = _random_traffic_run(SEED + 1)
    assert records_a != records_b


def test_parallel_sweep_twice_is_bit_identical():
    result_a, records_a = _sweep_run()
    result_b, records_b = _sweep_run()
    assert result_a.iteration_time == result_b.iteration_time
    assert result_a.messages == result_b.messages
    assert np.array_equal(result_a.phi, result_b.phi)
    assert len(records_a) > 0
    assert records_a == records_b


# -- the engine against the seed engine, observed and plain ---------------


def _engine_timeline(Simulator, observer=None):
    """A mixed workload's resume timeline: staggered timeout chains
    (clustered instants) and spawn/join — every scheduling site the
    engine inlines.  Returns the timeline and the final ``seq``."""
    sim = Simulator()
    if observer is not None:
        sim.attach_observer(observer)
    record: list[tuple] = []

    def chain(sim, tag, delay, n):
        for _ in range(n):
            yield sim.timeout(delay)
            record.append(("t", tag, sim.now))

    def child(sim, tag):
        yield sim.timeout(0.5)
        record.append(("c", tag, sim.now))
        return tag

    def parent(sim, n):
        for i in range(n):
            got = yield sim.process(child(sim, i))
            record.append(("j", got, sim.now))

    for i in range(8):
        sim.process(chain(sim, i, 1.0 + 0.25 * (i % 3), 40))
    sim.process(parent(sim, 25))
    sim.run()
    return record, sim._seq


def test_engine_timeline_matches_seed_engine():
    """Differential oracle: the optimized engine resumes every process
    at the same simulated time, in the same order, as the seed engine
    loaded from the repository's first commit."""
    seed = load_seed_engine()
    if seed is None:
        pytest.skip("seed engine unavailable (no git history)")
    timeline, _seq = _engine_timeline(Simulator)
    assert len(timeline) == 8 * 40 + 2 * 25
    assert timeline == _engine_timeline(seed.Simulator)[0]


def test_observed_engine_timeline_matches_plain():
    """An attached observer changes nothing: identical timeline and the
    same number of ``seq`` numbers consumed — and it sees every
    dispatch, each bootstrap once."""
    rec = ObsRecorder()
    assert _engine_timeline(Simulator, observer=rec) == _engine_timeline(Simulator)
    assert rec.events_by_class["Bootstrap"] == 8 + 1 + 25
    assert rec.events_by_class["Timeout"] == 8 * 40 + 25
    assert rec.events_by_class["Process"] == 25 + 9
    assert rec.resumes_by_process["parent"] == 1 + 25
    assert rec.host_run_time > 0


# -- the event/timeout free-list pool --------------------------------------


def test_event_pool_warm_vs_cold_bitwise():
    """The engine's timeout/bootstrap free lists are timeline-invisible:
    a pooled run (objects recycled once the pool is warm) and a
    ``pool_size=0`` run (every event freshly allocated) produce the
    identical traced timeline, message for message."""
    records_pooled, now_pooled = _random_traffic_run(SEED)
    records_plain, now_plain = _random_traffic_run(SEED, pool_size=0)
    assert now_pooled == now_plain
    assert len(records_pooled) > 0
    assert records_pooled == records_plain


def test_event_pool_recycles_within_one_run():
    """The pool actually engages on this workload (the bitwise test
    above would pass vacuously if recycling never happened)."""
    sim = Simulator()

    def ticker():
        for _ in range(50):
            yield sim.timeout(1.0)

    sim.process(ticker())
    sim.run()
    assert sim._free_timeout is not None or sim._free_timeouts


def test_event_pool_no_cross_run_leakage():
    """Interleaving simulations (each with its own Simulator and
    therefore its own pools) leaves every traced timeline equal to its
    isolated-run value — recycled event objects carry no state between
    models, mirroring the sweep-plan cache leakage test."""
    isolated_a = _random_traffic_run(SEED)
    isolated_sweep = _sweep_run()
    mixed_a = _random_traffic_run(SEED)
    mixed_sweep = _sweep_run()
    mixed_b = _random_traffic_run(SEED + 1)
    mixed_a2 = _random_traffic_run(SEED)
    assert mixed_a == isolated_a
    assert mixed_a2 == isolated_a
    assert mixed_b != isolated_a
    assert mixed_sweep[0].iteration_time == isolated_sweep[0].iteration_time
    assert np.array_equal(mixed_sweep[0].phi, isolated_sweep[0].phi)
    assert mixed_sweep[1] == isolated_sweep[1]


# -- the sweep-plan cache --------------------------------------------------


def test_sweep_plan_reused_across_solvers_and_distinct_per_geometry():
    """`solve` and `solve_multigroup` on one geometry share one cached
    plan object; a different geometry gets a different plan."""
    from repro.sweep3d import (
        MultigroupInput, get_plan, make_angle_set, solve, solve_multigroup,
    )

    inp = SweepInput(it=4, jt=3, kt=4, mk=2, mmi=2)
    M = make_angle_set(inp.mmi).n_angles
    plan = get_plan(inp.it, inp.jt, inp.kt, M)
    solve(inp, max_iterations=3)
    assert get_plan(inp.it, inp.jt, inp.kt, M) is plan
    mg = MultigroupInput(
        base=inp,
        sigma_t=(1.0, 1.2),
        sigma_s=((0.3, 0.0), (0.2, 0.4)),
        q=(1.0, 0.0),
    )
    solve_multigroup(mg, max_iterations=3)
    assert get_plan(inp.it, inp.jt, inp.kt, M) is plan
    other = get_plan(inp.it + 1, inp.jt, inp.kt, M)
    assert other is not plan
    assert other.shape == (inp.it + 1, inp.jt, inp.kt)


def test_sweep_plan_warm_vs_cold_bitwise():
    """A plan-cold solve (fresh cache) and a plan-warm solve (reusing
    cached index vectors and bound kernels) are
    bit-identical — the cache carries no numeric state between runs."""
    from repro.sweep3d import clear_plans, solve

    inp = SweepInput(it=5, jt=4, kt=6, mk=2, mmi=6, sigma_t=2.0, sigma_s=0.9)
    clear_plans()
    cold = solve(inp, max_iterations=15)
    warm = solve(inp, max_iterations=15)
    assert np.array_equal(cold.phi, warm.phi)
    assert cold.leakage == warm.leakage
    assert cold.balance_residual == warm.balance_residual


def test_sweep_plan_no_cross_run_leakage():
    """Interleaving solves on different geometries (and the distributed
    sweep, which shares block-shaped plans) leaves every result equal to
    its isolated-run value."""
    from repro.sweep3d import clear_plans, solve

    inp_a = SweepInput(it=4, jt=4, kt=4, mk=2, mmi=2)
    inp_b = SweepInput(it=3, jt=5, kt=6, mk=3, mmi=6, sigma_t=3.0)
    clear_plans()
    isolated_a = solve(inp_a, max_iterations=10).phi
    clear_plans()
    isolated_b = solve(inp_b, max_iterations=10).phi
    clear_plans()
    isolated_sweep, _ = _sweep_run()
    clear_plans()
    mixed_a = solve(inp_a, max_iterations=10).phi
    mixed_sweep, _ = _sweep_run()
    mixed_b = solve(inp_b, max_iterations=10).phi
    mixed_a2 = solve(inp_a, max_iterations=10).phi
    assert np.array_equal(mixed_a, isolated_a)
    assert np.array_equal(mixed_a2, isolated_a)
    assert np.array_equal(mixed_b, isolated_b)
    assert np.array_equal(mixed_sweep.phi, isolated_sweep.phi)
    assert mixed_sweep.iteration_time == isolated_sweep.iteration_time


# -- the campaign service ---------------------------------------------------


def test_campaign_worker_count_invariance(tmp_path):
    """A 16-job campaign run with 1 worker and with 4 workers produces
    identical reports and identical artifact hashes — results are a
    function of the specs, never of scheduling.  The seed matters
    (lossy delivery draws from a per-seed RNG), so the artifacts also
    demonstrably differ *across* seeds."""
    from repro.campaign import ArtifactStore, CampaignService, grid

    specs = grid(
        "sweep", 16, {"drop_probability": 0.05}, code_version="det-test"
    )
    reports = {}
    for workers in (1, 4):
        store = ArtifactStore(tmp_path / f"cache-{workers}")
        service = CampaignService(store, workers=workers)
        reports[workers] = service.run(specs)
    serial, pooled = reports[1], reports[4]
    assert serial.executed == pooled.executed == 16
    assert [o.artifact_sha256 for o in serial.outcomes] == [
        o.artifact_sha256 for o in pooled.outcomes
    ]
    assert serial.to_dict() == pooled.to_dict()
    # the cached envelopes are byte-identical files too
    for spec in specs:
        a = (tmp_path / "cache-1" / spec.digest[:2] / f"{spec.digest}.json")
        b = (tmp_path / "cache-4" / spec.digest[:2] / f"{spec.digest}.json")
        assert a.read_bytes() == b.read_bytes()
    # seeds genuinely vary the timeline (retry counts differ somewhere)
    retries = {o.artifact["retries"] for o in serial.outcomes}
    assert len(retries) > 1
