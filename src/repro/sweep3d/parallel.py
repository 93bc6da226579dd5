"""The distributed Sweep3D sweep on the simulated machine.

Each process of the 2-D KBA decomposition runs as a DES process with a
SimMPI rank.  Per octant, per K-block it (1) receives its upstream I-
and J-surfaces, (2) charges the simulated clock the machine's grind
time for the block, and (3) sends the downstream surfaces.  One run
yields both a physically meaningful global flux field (tested to match
the sequential solver to round-off) and a simulated iteration time
(cross-validated against the analytic wavefront model).

The numerics run beside the simulated clock, never on it: message
payloads do not move simulated time.  So a computed block does not call
the kernel; it records a node in the run's block graph — its flux
accumulator, octant and K-block, the node ids that arrived as the
payloads of its two surface receives, and its own previous K-block —
and sends its own node id as the payload.  SimMPI still carries every
surface dependency, so a mis-wired message still shows up in the flux.
The graph evaluates the recorded nodes level by level, a node's level
being one more than its deepest inflow's: one stacked
:class:`~repro.sweep3d.kernel.BoundKernel` call per wavefront level
across all ranks and octants (``npe_i + npe_j + k_blocks - 2`` calls
per sweep) instead of one call per block.  Each level's outflow faces
live only until their consumers have run, and each rank's flux is
summed over octants in octant order, so every bit matches the
block-by-block sweep.  ``run()`` evaluates once the simulation has
completed (never after :class:`SweepAborted`); ``solve_distributed()``
evaluates whenever a rank needs its flux for the convergence test.

Negative-direction octants run in sweep orientation: one octant-flip
index map per run gathers each block's flipped source and scatters its
flux back, and boundary surfaces are exchanged in that shared flipped
orientation, so neighbouring ranks agree on face layouts without
per-message transforms.

Because a fixed-source timed run repeats *numerically identical*
sweeps, ``run(iterations=N)`` defaults to **replay mode**: only the
first iteration records blocks, while the remaining ``N - 1``
iterations replay the identical DES event sequence (same receives,
timeouts, and sends with the same byte counts), giving bit-identical
``phi``, ``messages``, ``bytes_sent``, and ``iteration_time`` by
construction.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.comm.mpi import DeliveryError, Location, SimMPI
from repro.sim.engine import SimulationError, Simulator
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import bind_octant_kernel
from repro.sweep3d.plan import get_plan, octant_flip_maps
from repro.sweep3d.quadrature import OCTANTS, AngleSet, make_angle_set

__all__ = ["ParallelSweepResult", "ParallelSweep", "SweepAborted"]

_TAG_I = 1 << 16
_TAG_J = 1 << 17


class SweepAborted(RuntimeError):
    """A distributed sweep died mid-run on a delivery failure.

    Raised by :meth:`ParallelSweep.run` and
    :meth:`ParallelSweep.solve_distributed` when a rank's bounded receive
    or resilient send gives up (:class:`~repro.comm.mpi.DeliveryError`)
    — only possible when the survivability knobs (``recv_timeout`` /
    ``delivery``) are enabled.  Carries what a recovery orchestrator
    needs: how far the simulated clock got and how many whole
    iterations every rank had completed (the resume point).
    """

    def __init__(self, sim_time: float, completed_iterations: int,
                 cause: Exception, retries: int = 0):
        super().__init__(
            f"sweep aborted at t={sim_time:.6g}s after "
            f"{completed_iterations} completed iteration(s): {cause}"
        )
        self.sim_time = sim_time
        self.completed_iterations = completed_iterations
        self.cause = cause
        #: message retransmissions charged before the abort
        self.retries = retries


def _finish_line(body, finish, remaining: list):
    """Wrap a rank body so the last one to return succeeds ``finish``."""
    result = yield from body
    remaining[0] -= 1
    if remaining[0] == 0:
        finish.succeed(None)
    return result


#: node 0 of every block graph: the vacuum inflow (zero faces, level -1)
_VACUUM = 0


class _BlockGraph:
    """The deferred, level-batched block numerics of one run.

    Per computed sweep a rank opens a flux accumulator (:meth:`open`)
    and records one node per block (:meth:`record`).  :meth:`evaluate`
    runs every recorded node not yet evaluated, one kernel call per
    level, and :meth:`flux` hands a finished accumulator's flux to its
    rank.

    Memory stays flat: node records are packed ints, each evaluated
    level's outflow faces stay in the kernel's stacked buffer only until
    the last of their consumers has read them, and once every recorded
    node is evaluated and every face read the records are dropped.  The
    graph refers to no rank, process or sweep.
    """

    #: record fields: accumulator, octant, K-block, x/y/z inflow nodes,
    #: consumers of the node's outflow faces
    _FIELDS = 7

    def __init__(self, inp: SweepInput, angles: AngleSet, sources: np.ndarray):
        it, jt, kt, mk = inp.it, inp.jt, inp.kt, inp.mk
        M = angles.n_angles
        self._tile = (it, jt, kt)
        self._block = (it, jt, mk)
        self._blocks_per_sweep = len(OCTANTS) * inp.k_blocks
        self._plan = get_plan(it, jt, mk, M)
        self._bind_args = (inp.sigma_t, inp.dx, inp.dy, inp.dz, angles)
        kb = inp.k_blocks
        # [octant, K-block, (i * jt + j) * mk + k]: the tile cell an octant
        # sweeps as cell (i, j, k) of that block — gathers each block's
        # flipped source and scatters its flux back
        self._maps = (
            octant_flip_maps(it, jt, kt).reshape(-1, it, jt, kb, mk)
            .transpose(0, 3, 1, 2, 4).reshape(len(OCTANTS), kb, -1)
            .astype(np.int32)
        )
        #: ``(S, it * jt * kt)`` source rows; each accumulator names one
        self.sources = sources
        # -- records, node 0 being the vacuum inflow
        self._level = array("i", [-1])
        self._rec = array("i", [0] * self._FIELDS)
        self._next = 1  # first node not yet evaluated
        # -- evaluated outflow faces: batch id -> [(x, y, z) stacks, reads
        # left]; a node's faces are row ``_row_of[node]`` of batch
        # ``_batch_of[node]``.  Batch 0 holds the vacuum faces.
        self._batches = {0: [(
            np.zeros((1, jt, mk, M)), np.zeros((1, it, mk, M)),
            np.zeros((1, it, jt, M)),
        ), -1]}
        self._new_batch = 1
        self._batch_of = np.zeros(1, dtype=np.int32)
        self._row_of = np.zeros(1, dtype=np.int32)
        # -- flux accumulators: per octant, the tile flux of one sweep
        self._acc_source: list[int] = []
        self._acc_free: list[int] = []
        self._acc = np.empty((0, len(OCTANTS), it * jt * kt))
        self._acc_done = np.zeros(0, dtype=np.intp)
        self._phi: dict[int, np.ndarray] = {}

    def open(self, source_row: int) -> int:
        """A flux accumulator for one sweep of source row ``source_row``."""
        if self._acc_free:
            acc = self._acc_free.pop()
            self._acc_source[acc] = source_row
        else:
            acc = len(self._acc_source)
            self._acc_source.append(source_row)
        return acc

    def record(self, acc: int, octant: int, block: int,
               dep_x: int, dep_y: int, dep_z: int, reads: int) -> int:
        """Record one block; returns its node id (the message payload)."""
        level = self._level
        level.append(1 + max(level[dep_x], level[dep_y], level[dep_z]))
        self._rec.extend((acc, octant, block, dep_x, dep_y, dep_z, reads))
        return len(level) - 1

    def flux(self, acc: int) -> np.ndarray:
        """The finished tile flux of accumulator ``acc``, which is
        released; evaluates the graph first when needed."""
        if acc not in self._phi:
            self.evaluate()
        phi = self._phi.pop(acc)
        self._acc_free.append(acc)
        return phi

    def evaluate(self) -> None:
        """Evaluate every recorded node not yet evaluated, level by level."""
        lo, hi = self._next, len(self._level)
        if lo == hi:
            return
        self._next = hi
        fields = self._FIELDS
        # views of the packed records, released before they shrink below
        rec = np.frombuffer(self._rec, dtype=np.int32).reshape(-1, fields)[lo:]
        levels = np.frombuffer(self._level, dtype=np.int32)[lo:]
        self._batch_of = np.resize(self._batch_of, hi)
        self._row_of = np.resize(self._row_of, hi)
        n_acc = len(self._acc_source)
        held = self._acc.shape[0]
        if held < n_acc:
            grown = np.empty((n_acc,) + self._acc.shape[1:])
            grown[:held] = self._acc
            self._acc = grown
            done = np.zeros(n_acc, dtype=np.intp)
            done[:held] = self._acc_done
            self._acc_done = done
        acc_source = np.asarray(self._acc_source, dtype=np.intp)
        # Looked up at call time: instrumentation may wrap the binder.
        kernel = bind_octant_kernel(*self._bind_args, self._plan)
        order = np.argsort(levels, kind="stable")
        cuts = np.flatnonzero(np.diff(levels[order])) + 1
        for group in np.split(order, cuts):
            self._evaluate_level(kernel, lo + group, rec[group], acc_source)
        del rec, levels
        if len(self._batches) == 1:
            # drained: no recorded node is left and no face is unread
            del self._level[1:]
            del self._rec[fields:]
            self._next = 1

    def _evaluate_level(self, kernel, nodes, rec, acc_source) -> None:
        acc, octant, block = rec[:, 0], rec[:, 1], rec[:, 2]
        cells = self._maps[octant, block]
        sources = self.sources[acc_source[acc][:, None], cells]
        inflows = self._gather(rec[:, 3:6])
        phi, out_x, out_y, out_z = kernel(
            sources.reshape((len(nodes),) + self._block), *inflows
        )
        reads = int(rec[:, 6].sum())
        if reads:
            batch = self._new_batch
            self._new_batch += 1
            self._batches[batch] = [(out_x, out_y, out_z), reads]
            self._batch_of[nodes] = batch
            self._row_of[nodes] = np.arange(len(nodes))
        # Each block's flux goes to its octant's row of its accumulator.
        n_oct = len(OCTANTS)
        self._acc.reshape(-1, self._acc.shape[-1])[
            (acc * n_oct + octant)[:, None], cells
        ] = phi.reshape(len(nodes), -1)
        done = self._acc_done
        np.add.at(done, acc, 1)
        touched = np.unique(acc)
        finished = touched[done[touched] == self._blocks_per_sweep]
        if finished.size:
            done[finished] = 0
            # Octant order, as the sequential solver adds them.
            total = np.zeros((finished.size, self._acc.shape[-1]))
            for o in range(n_oct):
                total += self._acc[finished, o]
            for a, flux in zip(finished.tolist(), total.reshape((-1,) + self._tile)):
                self._phi[a] = flux

    def _gather(self, deps: np.ndarray) -> list:
        """The x/y/z inflow stacks of one level (``deps`` is ``(R, 3)``
        node ids); drops every batch whose faces are all read."""
        batch_of = self._batch_of[deps]
        row_of = self._row_of[deps]
        batches = self._batches
        used, counts = np.unique(batch_of, return_counts=True)
        inflows = []
        for f, face in enumerate(batches[0][0]):
            stack = np.empty((len(deps),) + face.shape[1:])
            for b in used.tolist():
                mask = batch_of[:, f] == b
                stack[mask] = batches[b][0][f][row_of[mask, f]]
            inflows.append(stack)
        for b, c in zip(used.tolist(), counts.tolist()):
            if b:
                entry = batches[b]
                entry[1] -= c
                if entry[1] == 0:
                    del batches[b]
        return inflows


@dataclass
class ParallelSweepResult:
    """Outcome of a distributed iteration set."""

    phi: np.ndarray
    iteration_time: float
    iterations: int
    messages: int
    bytes_sent: int
    #: simulated seconds each rank spent computing blocks (all
    #: iterations; identical across ranks in weak scaling)
    compute_time_per_rank: float = 0.0
    #: message retransmissions (0 without a delivery policy)
    retries: int = 0
    per_rank_phi: list = field(repr=False, default_factory=list)

    @property
    def parallel_efficiency(self) -> float:
        """Fraction of the run each rank spent computing — the measured
        counterpart of the wavefront model's parallel efficiency."""
        total = self.iteration_time * self.iterations
        return self.compute_time_per_rank / total if total > 0 else 1.0


class ParallelSweep:
    """Run the KBA sweep over ``decomp`` on a simulated fabric.

    Parameters
    ----------
    inp:
        The per-process subgrid (weak scaling: every rank gets this).
    decomp:
        The logical process array.
    grind_time:
        Seconds per cell-angle charged to the simulated clock.
    fabric:
        A SimMPI fabric (transport cost model between rank locations).
    locations:
        Physical placement of each rank; defaults to one node per rank.
    delivery, recv_timeout, fault_hook:
        Survivability knobs (all default off — the default run is the
        seed timeline, bit for bit): a DeliveryPolicy for the
        communicator, a bound on every receive (the surface receives and
        the solve's convergence allreduces; ``None`` or a finite number
        of seconds > 0), and a hook to wire a
        FaultInjector into the run's private Simulator.  With them
        enabled a mid-run fault surfaces as :class:`SweepAborted`; see
        :func:`repro.resilience.recovery.run_with_recovery`.
    """

    def __init__(
        self,
        inp: SweepInput,
        decomp: Decomposition2D,
        grind_time: float | list[float],
        fabric,
        locations: list[Location] | None = None,
        angles: AngleSet | None = None,
        delivery=None,
        recv_timeout: float | None = None,
        fault_hook=None,
        obs=None,
    ):
        if isinstance(grind_time, (int, float)):
            grinds = [float(grind_time)] * decomp.size
        else:
            grinds = [float(g) for g in grind_time]
            if len(grinds) != decomp.size:
                raise ValueError("need one grind time per rank")
        if not all(0 < g < np.inf for g in grinds):
            raise ValueError("grind_time must be positive and finite")
        if recv_timeout is not None and not 0 < recv_timeout < np.inf:
            # Checked here: inside the run a bad bound would surface as
            # a fault (SweepAborted) instead of as a bad argument.
            raise ValueError(
                f"recv_timeout must be None or finite and positive, got {recv_timeout!r}"
            )
        self.inp = inp
        self.decomp = decomp
        self.grind_times = grinds
        self.grind_time = grinds[0]
        self.fabric = fabric
        self.locations = locations or [
            Location(node=r) for r in range(decomp.size)
        ]
        if len(self.locations) != decomp.size:
            raise ValueError("one location per rank required")
        self.angles = angles or make_angle_set(inp.mmi)
        # -- survivability knobs (all default off: the default run is
        # bit-identical to the seed timeline, asserted in perf smoke) --
        #: optional :class:`repro.resilience.policy.DeliveryPolicy`
        #: given to the communicator (sends to dead endpoints fail)
        self.delivery = delivery
        #: bound on every receive, simulated seconds; a dead upstream
        #: neighbour or allreduce partner then aborts the run
        #: (:class:`SweepAborted`) instead of stalling it forever
        self.recv_timeout = recv_timeout
        #: optional ``hook(sim, procs, locations)`` called after the
        #: rank processes are created and before the simulation runs —
        #: the seam where a recovery driver wires a FaultInjector to
        #: this run's private Simulator (``injector.watch`` per node)
        self.fault_hook = fault_hook
        #: optional :class:`repro.obs.recorder.ObsRecorder`: records
        #: ``sweep.iteration`` / ``sweep.octant`` / ``sweep.compute``
        #: spans per rank, attaches to the run's private Simulator, and
        #: is handed to the communicator for send/recv/collective spans
        self.obs = obs

    # -- per-rank process -----------------------------------------------------
    def _rank_solve_body(
        self, rank, graph: _BlockGraph, phi_out: list, info: dict,
        max_iterations: int, progress: list,
    ):
        """Distributed source iteration: sweep, update the scattering
        source locally (phi is rank-local), and agree on convergence
        with an allreduce — the full §V solver, on the simulated
        machine.  The rank's source is its row of the graph's sources;
        ``progress[rank]`` counts its finished iterations."""
        inp = self.inp
        r = rank.index
        external = np.full((inp.it, inp.jt, inp.kt), inp.q)
        phi = np.zeros_like(external)
        source = graph.sources[r].reshape(external.shape)
        timeout = self.recv_timeout
        obs = self.obs
        for iteration in range(1, max_iterations + 1):
            t0 = rank.sim.now if obs is not None else 0.0
            np.add(external, inp.sigma_s * phi, out=source)
            acc = graph.open(r)
            yield from self._sweep_once(rank, graph, acc)
            phi_new = graph.flux(acc)
            local_change = float(np.abs(phi_new - phi).max())
            local_peak = float(np.abs(phi_new).max())
            global_change = yield from rank.allreduce(
                local_change, op=max, timeout=timeout
            )
            global_peak = yield from rank.allreduce(
                local_peak, op=max, timeout=timeout
            )
            if obs is not None:
                obs.span("sweep.iteration", r, t0, rank.sim.now,
                         iteration=iteration)
            phi = phi_new
            progress[r] = iteration
            rel = global_change / global_peak if global_peak > 0 else 0.0
            if rel < inp.epsi:
                info["iterations"] = iteration
                info["converged"] = True
                info["rel_change"] = rel
                break
        else:
            info["iterations"] = max_iterations
            info["converged"] = False
            info["rel_change"] = rel
        phi_out[r] = phi

    def _sweep_once(self, rank, graph: _BlockGraph, acc: int | None):
        """One full 8-octant sweep (generator).

        Each block records a node into ``graph`` under accumulator
        ``acc`` and sends the node id downstream.  With ``acc=None`` the
        sweep *replays*: the exact same receive/timeout/send event
        sequence executes against the simulated clock (sends keep their
        byte counts; payloads carry ``None``) but records nothing —
        simulated time never depends on payload values, so the DES
        timeline is identical by construction.

        A receive with no bound and no recorder is posted bare (MPI's
        Irecv-then-wait): the very event ``Rank.recv`` would yield.
        """
        inp = self.inp
        it, jt, mk = inp.it, inp.jt, inp.mk
        M = self.angles.n_angles
        kb = inp.k_blocks
        block_time = inp.block_angle_work() * self.grind_times[rank.index]
        i_surface = jt * mk * M * 8
        j_surface = it * mk * M * 8
        timeout = self.recv_timeout
        obs = self.obs
        # Looked up per sweep: instrumentation may wrap the method.
        irecv = rank.irecv if timeout is None and obs is None else None
        sim = rank.sim
        node = None
        for oid, up_i, dn_i, up_j, dn_j in self.decomp.neighbours(rank.index):
            # consumers of a block's faces: the two downstream ranks
            # and, below the last K-block, this rank's next block
            sends = (dn_i is not None) + (dn_j is not None)
            prev = _VACUUM
            t_oct = sim.now if obs is not None else 0.0
            for b in range(kb):
                tag_i = _TAG_I + oid * kb + b
                tag_j = _TAG_J + oid * kb + b
                if up_i is None:
                    in_x = _VACUUM
                elif irecv is not None:
                    in_x = (yield irecv(up_i, tag_i)).payload
                else:
                    msg = yield from rank.recv(source=up_i, tag=tag_i, timeout=timeout)
                    in_x = msg.payload
                if up_j is None:
                    in_y = _VACUUM
                elif irecv is not None:
                    in_y = (yield irecv(up_j, tag_j)).payload
                else:
                    msg = yield from rank.recv(source=up_j, tag=tag_j, timeout=timeout)
                    in_y = msg.payload
                start = sim.now if obs is not None else 0.0
                yield sim.timeout(block_time)
                if obs is not None:
                    obs.span("sweep.compute", rank.index, start, sim.now,
                             octant=oid, block=b)
                if acc is not None:
                    node = prev = graph.record(
                        acc, oid, b, in_x, in_y, prev, sends + (b < kb - 1)
                    )
                if dn_i is not None:
                    yield from rank.send(dn_i, i_surface, tag_i, node)
                if dn_j is not None:
                    yield from rank.send(dn_j, j_surface, tag_j, node)
            if obs is not None:
                obs.span("sweep.octant", rank.index, t_oct, sim.now,
                         octant=oid)

    def _rank_body(
        self, rank, graph: _BlockGraph, accs: list, iterations: int,
        replay: bool, progress: list,
    ):
        """Timed runs: repeat the same fixed-source sweep, as the
        paper's fixed-iteration measurements do.  With ``replay`` only
        the first sweep records blocks; the rest replay the identical
        DES event sequence (see :meth:`_sweep_once`).  ``accs[rank]`` is
        the accumulator of the rank's last recorded sweep;
        ``progress[rank]`` counts its finished sweeps — the resume point
        of :func:`repro.resilience.recovery.run_with_recovery` when a
        fault aborts the run."""
        obs = self.obs
        for iteration in range(iterations):
            compute = iteration == 0 or not replay
            acc = graph.open(0) if compute else None
            t0 = rank.sim.now if obs is not None else 0.0
            yield from self._sweep_once(rank, graph, acc)
            if obs is not None:
                obs.span("sweep.iteration", rank.index, t0, rank.sim.now,
                         iteration=iteration, replay=not compute)
            if compute:
                accs[rank.index] = acc
            progress[rank.index] = iteration + 1

    # -- execution -------------------------------------------------------------
    def _execute(self, graph: _BlockGraph, make_body, name: str):
        """Run one rank process per rank to completion; returns
        ``(sim, comm)``.  Shared by :meth:`run` and
        :meth:`solve_distributed`: private Simulator, obs attachment,
        communicator, finish line, fault hook, :class:`SweepAborted`,
        and the final graph evaluation.  ``make_body(rank, progress)``
        builds a rank's generator; ``progress[rank]`` is its count of
        finished iterations."""
        dec = self.decomp
        sim = Simulator()
        if self.obs is not None:
            sim.attach_observer(self.obs)
        comm = SimMPI(sim, self.fabric, self.locations,
                      delivery=self.delivery, obs=self.obs)
        progress = [0] * dec.size
        # With bounded receives armed, recv timers that lose their race
        # against the message stay in the event heap; draining it would
        # drag ``sim.now`` past the real completion time.  A finish-line
        # event succeeded by the last rank to complete lets the bounded
        # run stop at the true finish instant and never pop the stale
        # timers — while a survivor's DeliveryError still escapes, and a
        # fault victim's defused Interrupt stays silent.
        finish = sim.event() if self.recv_timeout is not None else None
        remaining = [dec.size]
        procs = []
        for r in range(dec.size):
            body = make_body(comm.rank(r), progress)
            if finish is not None:
                body = _finish_line(body, finish, remaining)
            procs.append(sim.process(body, name=f"{name}-rank{r}"))
        if self.fault_hook is not None:
            self.fault_hook(sim, procs, self.locations)
        try:
            if finish is not None:
                sim.run(until=finish)
            else:
                sim.run()
        except DeliveryError as err:
            raise SweepAborted(
                sim.now, min(progress), err, retries=sum(comm.retry_counts)
            ) from err
        except SimulationError as err:
            if finish is None:
                raise
            # every rank died before any survivor's timeout could fire
            raise SweepAborted(
                sim.now, min(progress), err, retries=sum(comm.retry_counts)
            ) from err
        graph.evaluate()
        return sim, comm

    def run(
        self,
        source: np.ndarray | None = None,
        iterations: int = 1,
        replay: bool = True,
    ) -> ParallelSweepResult:
        """Execute ``iterations`` sweeps; returns global flux and the
        simulated time per iteration.

        A fixed-source timed run repeats numerically identical sweeps,
        so ``replay=True`` (the default) computes the flux on the first
        iteration and replays only the DES timing for the remaining
        ``iterations - 1`` — bit-identical ``phi``, ``messages``,
        ``bytes_sent``, and ``iteration_time``, asserted in the perf
        smoke tier.  Pass ``replay=False`` to force every iteration
        through the numerics.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        inp = self.inp
        if source is None:
            source = np.full((inp.it, inp.jt, inp.kt), inp.q)
        if source.shape != (inp.it, inp.jt, inp.kt):
            raise ValueError("source must match the per-rank subgrid")
        source = np.ascontiguousarray(source, dtype=np.float64)
        if not np.isfinite(source).all():
            raise ValueError("source must be finite")
        # weak scaling: every rank sweeps the one source row
        graph = _BlockGraph(inp, self.angles, source.reshape(1, -1))
        accs: list = [None] * self.decomp.size
        sim, comm = self._execute(
            graph,
            lambda rank, progress: self._rank_body(
                rank, graph, accs, iterations, replay, progress
            ),
            "sweep",
        )
        phi_out = [graph.flux(acc) for acc in accs]
        return self._result(sim, comm, phi_out, iterations)

    def solve_distributed(self, max_iterations: int = 100):
        """Run the full distributed source iteration to convergence.

        Returns ``(result, info)``: the usual
        :class:`ParallelSweepResult` (``iteration_time`` is the
        per-iteration average) plus a dict with ``iterations``,
        ``converged``, and ``rel_change`` — the distributed solver's
        counterpart of :func:`repro.sweep3d.solver.solve`.  Honours the
        survivability knobs exactly as :meth:`run` does.
        """
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        inp = self.inp
        size = self.decomp.size
        graph = _BlockGraph(
            inp, self.angles, np.empty((size, inp.it * inp.jt * inp.kt))
        )
        phi_out: list = [None] * size
        info: dict = {}
        sim, comm = self._execute(
            graph,
            lambda rank, progress: self._rank_solve_body(
                rank, graph, phi_out, info, max_iterations, progress
            ),
            "solve",
        )
        return self._result(sim, comm, phi_out, info["iterations"]), info

    def _result(self, sim, comm, phi_out: list, iterations: int) -> ParallelSweepResult:
        """Shared :class:`ParallelSweepResult` assembly for ``run`` and
        ``solve_distributed`` — one construction path, so replay mode
        has a single place to stay honest about its bookkeeping."""
        # Per-rank compute time uses the mean grind (exact when uniform).
        block_time = self.inp.block_angle_work() * (
            sum(self.grind_times) / len(self.grind_times)
        )
        return ParallelSweepResult(
            phi=self._assemble(phi_out),
            iteration_time=sim.now / iterations,
            iterations=iterations,
            messages=sum(comm.sent_counts),
            bytes_sent=sum(comm.sent_bytes),
            compute_time_per_rank=iterations * 8 * self.inp.k_blocks * block_time,
            retries=sum(comm.retry_counts),
            per_rank_phi=phi_out,
        )

    def _assemble(self, phi_out: list) -> np.ndarray:
        """Stitch per-rank fluxes into the global array."""
        inp, dec = self.inp, self.decomp
        phi = np.empty((inp.it * dec.npe_i, inp.jt * dec.npe_j, inp.kt))
        for r, block in enumerate(phi_out):
            pi, pj = dec.coords(r)
            phi[
                pi * inp.it : (pi + 1) * inp.it,
                pj * inp.jt : (pj + 1) * inp.jt,
                :,
            ] = block
        return phi
