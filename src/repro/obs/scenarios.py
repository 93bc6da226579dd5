"""Canned, deterministic scenarios for ``python -m repro profile``.

Each scenario builds a small simulation with a recorder attached end to
end (engine observer, communicator spans, fabric link spans), runs it,
and returns the total simulated time.  They are fixed-seed and
payload-free, so the recorded span stream is bit-reproducible — the
golden-trace conformance test pins ``sweep4``.
"""

from __future__ import annotations

from repro.obs.recorder import ObsRecorder

__all__ = ["SCENARIOS", "run_scenario"]


def _sweep(obs, npe_i: int, npe_j: int, iterations: int = 2) -> float:
    from repro.comm.mpi import UniformFabric
    from repro.comm.transport import Transport
    from repro.sweep3d.decomposition import Decomposition2D
    from repro.sweep3d.input import SweepInput
    from repro.sweep3d.parallel import ParallelSweep

    inp = SweepInput(it=2, jt=2, kt=8, mk=2, mmi=2)
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    sweep = ParallelSweep(
        inp, Decomposition2D(npe_i, npe_j), 1e-6, fabric, obs=obs
    )
    result = sweep.run(iterations=iterations)
    return result.iteration_time * result.iterations


def sweep4(obs) -> float:
    """2x2 KBA sweep, two timed iterations (the golden-trace scenario)."""
    return _sweep(obs, 2, 2)


def sweep16(obs) -> float:
    """4x4 KBA sweep — the acceptance criterion's 16-rank attribution."""
    return _sweep(obs, 4, 4)


def solve4(obs) -> float:
    """2x2 distributed source iteration to convergence (collectives)."""
    from repro.comm.mpi import UniformFabric
    from repro.comm.transport import Transport
    from repro.sweep3d.decomposition import Decomposition2D
    from repro.sweep3d.input import SweepInput
    from repro.sweep3d.parallel import ParallelSweep

    inp = SweepInput(it=2, jt=2, kt=4, mk=2, mmi=1)
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    sweep = ParallelSweep(inp, Decomposition2D(2, 2), 1e-6, fabric, obs=obs)
    result, _info = sweep.solve_distributed(max_iterations=20)
    return result.iteration_time * result.iterations


def ring8(obs) -> float:
    """8 nodes exchange 1 MB around a ring over the contended fabric —
    per-link occupancy on the shared HCA injection/ejection ports."""
    from repro.comm.mpi import Location, SimMPI
    from repro.network.simfabric import ContendedFabric
    from repro.sim.engine import Simulator
    from repro.units import MB

    sim = Simulator()
    sim.attach_observer(obs)
    fabric = ContendedFabric(sim, obs=obs)
    comm = SimMPI(
        sim, fabric, [Location(node=i) for i in range(8)], obs=obs
    )
    size = int(1 * MB)

    def body(rank):
        yield from rank.send((rank.index + 1) % 8, size=size)
        yield from rank.recv()
        yield from rank.barrier()

    for r in range(comm.size):
        sim.process(body(comm.rank(r)), name=f"ring-rank{r}")
    sim.run()
    return sim.now


def _fullmachine(obs, ranks: int, iterations: int = 1) -> float:
    """A full-machine KBA sweep at ``ranks`` ranks — the paper's whole-
    machine scale, on a reduced per-rank tile so the scenario finishes
    in CLI-tolerable wall-clock.  The span volume is what makes it a
    scenario worth profiling: hundreds of thousands of spans per
    iteration, which is why the default recorder for these scenarios
    carries a streaming :class:`~repro.obs.sinks.AggregatingSink`."""
    from repro.comm.mpi import UniformFabric
    from repro.comm.transport import Transport
    from repro.sweep3d.decomposition import Decomposition2D
    from repro.sweep3d.input import SweepInput
    from repro.sweep3d.parallel import ParallelSweep

    inp = SweepInput(it=2, jt=2, kt=8, mk=4, mmi=2)
    fabric = UniformFabric(Transport("ib", latency=2e-6, bandwidth=2e9))
    sweep = ParallelSweep(
        inp, Decomposition2D.near_square(ranks), 1e-6, fabric, obs=obs
    )
    result = sweep.run(iterations=iterations)
    return result.iteration_time * result.iterations


def sweep3060(obs) -> float:
    """Roadrunner full machine: 3,060 ranks (60x51 KBA), one iteration."""
    return _fullmachine(obs, 3060)


def sweep6120(obs) -> float:
    """The "2x Roadrunner" what-if: 6,120 ranks, one iteration."""
    return _fullmachine(obs, 6120)


#: scenario name -> function(obs) -> total simulated seconds
SCENARIOS = {
    "sweep4": sweep4,
    "sweep16": sweep16,
    "solve4": solve4,
    "ring8": ring8,
    "sweep3060": sweep3060,
    "sweep6120": sweep6120,
}

#: scenarios whose span volume needs a streaming sink by default
_SINKED = frozenset({"sweep3060", "sweep6120"})


def run_scenario(name: str, obs: ObsRecorder | None = None):
    """Run one scenario under a recorder; returns ``(recorder,
    sim_time)``."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(sorted(SCENARIOS))}"
        ) from None
    if obs is not None:
        rec = obs
    elif name in _SINKED:
        from repro.obs.sinks import AggregatingSink

        rec = ObsRecorder(sink=AggregatingSink())
    else:
        rec = ObsRecorder()
    return rec, fn(rec)
