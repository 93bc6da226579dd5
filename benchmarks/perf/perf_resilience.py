"""The resilience layer's zero-overhead-when-disabled contract.

PR 2 adds a ``delivery`` policy hook to :class:`repro.comm.mpi.SimMPI`.
The contract is that **without** a policy (the default), ``Rank.send``
is the historical code: bit-identical event timelines against the seed
commit's ``mpi.py``, and no additional per-message object allocation.
The smoke tier asserts both; the measured tier records what the
resilient path costs when it *is* enabled (perfect and lossy policies)
so the overhead stays visible in ``BENCH_perf.json``.
"""

from __future__ import annotations

import gc
import sys

from benchmarks.framework import (
    Case,
    PerfTest,
    SkipCase,
    load_seed_module,
    paired_seconds,
    perftest,
)
from benchmarks.framework.pytest_bridge import install_pytest_tests
from repro.comm import mpi as current_mpi
from repro.comm.transport import Transport
from repro.obs import ObsRecorder, span_stream
from repro.resilience.policy import DeliveryPolicy
from repro.sim import Simulator
from repro.units import US

RANKS = 8
ROUNDS = 40


def _transport():
    return Transport("bench", latency=2 * US, bandwidth=2e9,
                     eager_threshold=1024, rendezvous_latency=1 * US)


def _run_ring(mod, **kwargs):
    """A ring workload with mixed sizes over ``mod``'s SimMPI (``kwargs``
    go to its constructor); returns the final simulated time."""
    sim = Simulator()
    fabric = mod.UniformFabric(_transport())
    comm = mod.SimMPI(
        sim, fabric, [mod.Location(node=i) for i in range(RANKS)], **kwargs
    )

    def body(rank):
        nxt = (rank.index + 1) % RANKS
        prev = (rank.index - 1) % RANKS
        for i in range(ROUNDS):
            yield from rank.send(nxt, size=64 if i % 3 else 8192, tag=i)
            yield from rank.recv(source=prev, tag=i)

    for r in range(RANKS):
        sim.process(body(comm.rank(r)), name=f"rank{r}")
    sim.run()
    return sim.now


def _load_seed_mpi(module_name: str):
    """The seed commit's ``comm/mpi.py``; None without git history.  It
    imports ``repro.sim.trace``, which the tree no longer has, so the
    seed ``trace.py`` stands in under that name while it executes."""
    if load_seed_module("src/repro/sim/trace.py", "repro.sim.trace") is None:
        return None
    try:
        return load_seed_module("src/repro/comm/mpi.py", module_name)
    finally:
        sys.modules.pop("repro.sim.trace", None)


def _mpi_recorder() -> ObsRecorder:
    return ObsRecorder(categories={"mpi.send", "mpi.recv"})


def _seed_facts(tracer) -> dict:
    """The seed tracer's records per (category, rank), in order."""
    facts: dict = {}
    for rec in tracer.records:
        facts.setdefault((rec.category, rec.source), []).append(
            (rec.time, rec.detail)
        )
    return facts


def _span_facts(rec: ObsRecorder) -> dict:
    """The same facts from today's spans: each send's start time with
    its dest, size and tag; each receive's end time with its source and
    size.  A rank's sends (and receives) are sequential, so per rank the
    span order is the seed's record order."""
    facts: dict = {}
    for span in rec.spans:
        attrs = dict(span.attrs)
        if span.category == "mpi.send":
            fact = (span.t0, {k: attrs[k] for k in ("dest", "size", "tag")})
        else:
            fact = (span.t1, {"source": attrs["source"], "size": attrs["size"]})
        facts.setdefault((span.category, span.track), []).append(fact)
    return facts


def _leftover_objects(mod, n_messages: int) -> int:
    """Live-object growth from ``n_messages`` undelivered-to-user sends
    (the Messages stay parked in the destination mailbox)."""
    sim = Simulator()
    fabric = mod.UniformFabric(_transport())
    comm = mod.SimMPI(sim, fabric, [mod.Location(node=i) for i in range(2)])

    def sender(rank):
        for i in range(n_messages):
            yield from rank.send(1, size=64, tag=0)

    sim.process(sender(comm.rank(0)), name="sender")
    gc.collect()
    before = len(gc.get_objects())
    sim.run()
    gc.collect()
    after = len(gc.get_objects())
    # Keep comm alive past the measurement so mailbox contents count.
    assert len(comm._mailboxes[1].pending) == n_messages
    return after - before


@perftest
class ResilienceDisabledContract(PerfTest):
    """Smoke tier: the no-policy send path is the historical code."""

    name = "resilience_contract"
    title = "resilience: delivery=None is the seed-commit send path"
    tiers = ("smoke",)
    params = {
        "check": [
            "timeline_vs_seed",
            "allocation_slope",
            "perfect_policy_timeline",
        ]
    }

    def sanity(self, case: Case):
        if case.check == "timeline_vs_seed":
            # delivery=None must reproduce the seed commit's event
            # timeline and its traced send/receive facts exactly.
            seed = _load_seed_mpi("_seed_comm_mpi")
            if seed is None:
                raise SkipCase("seed mpi layer unavailable (no git history)")
            t_seed, rec_now = seed.Tracer(), _mpi_recorder()
            now_seed = _run_ring(seed, tracer=t_seed)
            now_current = _run_ring(current_mpi, obs=rec_now)
            assert now_current == now_seed
            assert len(rec_now.spans) == len(t_seed.records) > 0
            assert _span_facts(rec_now) == _seed_facts(t_seed)
        elif case.check == "allocation_slope":
            # The per-message live-object slope of ``Rank.send`` with no
            # policy must not exceed the seed commit's — the ``delivery``
            # guard costs an attribute load and an ``is`` check, not an
            # allocation.
            seed = _load_seed_mpi("_seed_comm_mpi_alloc")
            if seed is None:
                raise SkipCase("seed mpi layer unavailable (no git history)")
            n1, n2 = 256, 512
            slope_now = (_leftover_objects(current_mpi, n2)
                         - _leftover_objects(current_mpi, n1)) / (n2 - n1)
            slope_seed = (_leftover_objects(seed, n2)
                          - _leftover_objects(seed, n1)) / (n2 - n1)
            # Identical code path => identical slope; allow a sliver of
            # noise (interned ints, list growth granularity) but nothing
            # near one extra object per message.
            assert slope_now <= slope_seed + 0.25, (slope_now, slope_seed)
        else:
            # Installing DeliveryPolicy() (perfect fabric) must not move
            # one event: same finish time, same span stream (less the
            # resilient path's own ``attempts`` attribute, always 1).
            rec_off, rec_on = _mpi_recorder(), _mpi_recorder()
            now_off = _run_ring(current_mpi, obs=rec_off)
            now_on = _run_ring(
                current_mpi, obs=rec_on, delivery=DeliveryPolicy()
            )
            assert now_on == now_off
            stream_on = span_stream(rec_on)
            for span in stream_on:
                assert span["attrs"].pop("attempts", 1) == 1
            assert len(stream_on) > 0
            assert stream_on == span_stream(rec_off)
        return None


@perftest
class ResilienceOverhead(PerfTest):
    """Measured tier: what the resilient send path costs when enabled."""

    name = "resilience"
    title = "resilience: overhead of perfect and lossy delivery policies"
    tiers = ("measured",)
    section = "resilience"

    def measure(self, case: Case):
        times = paired_seconds(
            {
                "disabled": lambda: _run_ring(current_mpi),
                "perfect_policy": lambda: _run_ring(
                    current_mpi, delivery=DeliveryPolicy()
                ),
                "lossy_policy": lambda: _run_ring(
                    current_mpi,
                    delivery=DeliveryPolicy(
                        drop_probability=0.05, max_retries=10
                    ),
                ),
            },
            repeats=4,
        )
        assert times["disabled"] > 0
        return {
            "disabled_s": round(times["disabled"], 5),
            "perfect_policy_s": round(times["perfect_policy"], 5),
            "lossy_policy_s": round(times["lossy_policy"], 5),
            "perfect_overhead": round(
                times["perfect_policy"] / times["disabled"], 3
            ),
        }

    def publish(self, metrics):
        return {
            "config": f"{RANKS}-rank ring, {ROUNDS} rounds, mixed 64B/8KiB",
            **dict(metrics["default"]),
        }


install_pytest_tests(globals())
