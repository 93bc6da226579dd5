"""Host-time spans around the public entry points of each ``repro`` layer.

The tracer lives entirely in the benchmark: :func:`traced` replaces a
fixed list of public callables (:data:`TARGETS`) with wrappers for the
duration of a ``with`` block and restores the originals afterwards.
Nothing inside ``repro`` is instrumented, so a traced op runs the same
code on the same inputs and produces bit-identical results; only host
time changes.

A wrapped plain call is one span.  A wrapped *generator* call (SimMPI's
``Rank.send``/``recv`` and the collectives) returns a proxy that
forwards ``send``/``throw``/``close`` to the real generator and records
one span per resumption: a DES process interleaves with every other
process between resumptions, so only the slices in which the generator
actually runs are its host time.  Spans nest strictly (the simulation
is single-threaded), so a span's self time is its duration minus the
spans that ran inside it, and a layer's busy time is the time during
which at least one of its spans is open.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from time import perf_counter
from typing import Any, Iterator

__all__ = ["TARGETS", "KERNEL_TARGET", "LAYERS", "Tracer", "traced"]

_COLLECTIVES = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
    "allgather", "alltoall",
)

#: ``(layer, module, Class.attribute)`` of every wrapped public callable
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator.run"),
    *(("comm", "repro.comm.mpi", f"Rank.{name}")
      for name in ("send", "recv", "irecv", *_COLLECTIVES)),
    ("network", "repro.network.simfabric", "ContendedFabric.transfer"),
    ("network", "repro.sim.resources", "BandwidthLink.transfer"),
    *(("obs", "repro.obs.recorder", f"ObsRecorder.{name}")
      for name in ("span", "count", "gauge")),
    ("obs", "repro.obs.sinks", "AggregatingSink.consume"),
    ("campaign", "repro.campaign.store", "ArtifactStore.put"),
    ("campaign", "repro.campaign.store", "ArtifactStore.get"),
    *(("campaign", "repro.campaign.journal", f"Journal.{name}")
      for name in ("create", "record_started", "record_cached_hit",
                   "record_finished", "record_failed", "record_end")),
)

#: the Sweep3D block kernel, wrapped where the distributed sweep binds
#: it: each kernel returned by ``bind_octant_kernel`` is itself wrapped
KERNEL_TARGET = ("sweep3d", "repro.sweep3d.parallel", "bind_octant_kernel")

#: layer names, in report order
LAYERS = ("sim", "comm", "network", "sweep3d", "obs", "campaign")

#: raw spans kept for ``trace.json``; a full-machine op resumes SimMPI
#: generators about a million times
_MAX_SPANS = 100_000


class Tracer:
    """In-memory span recorder with per-name and per-layer totals.

    Totals cover every span.  The raw spans kept for ``trace.json`` are
    capped at :data:`_MAX_SPANS`; the rest are counted in :attr:`dropped`.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        #: per name: wrapped calls, spans, summed duration, summed self time
        self.calls: list[int] = []
        self.slices: list[int] = []
        self.busy: list[float] = []
        self.self_time: list[float] = []
        #: per layer: time with at least one of its spans open
        self.layer_busy = [0.0] * len(LAYERS)
        self._depth = [0] * len(LAYERS)
        #: open spans, innermost last: [start, child_time, name, id, parent]
        self._stack: list[list[Any]] = []
        self._next_id = 0
        #: kept spans: (id, name, start, end, parent id; 0 = none)
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.dropped = 0
        #: cell-angle pairs swept by wrapped kernel calls
        self.cell_angles = 0

    def register(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.slices.append(0)
        self.busy.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def enter(self, nid: int) -> list[Any]:
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][3] if stack else 0
        self._depth[self.layer_of[nid]] += 1
        frame = [perf_counter(), 0.0, nid, self._next_id, parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list[Any]) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        start, child, nid, sid, parent = frame
        dur = end - start
        if stack:
            stack[-1][1] += dur
        self.slices[nid] += 1
        self.busy[nid] += dur
        self.self_time[nid] += dur - child
        layer = self.layer_of[nid]
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.layer_busy[layer] += dur
        if len(self.spans) < _MAX_SPANS:
            self.spans.append((sid, nid, start, end, parent))
        else:
            self.dropped += 1

    # -- reports -------------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: wrapped calls, spans, busy and self seconds."""
        out = {
            layer: {"calls": 0, "spans": 0, "busy_s": self.layer_busy[i],
                    "self_s": 0.0}
            for i, layer in enumerate(LAYERS)
        }
        for nid, name in enumerate(self.names):
            entry = out[LAYERS[self.layer_of[nid]]]
            entry["calls"] += self.calls[nid]
            entry["spans"] += self.slices[nid]
            entry["self_s"] += self.self_time[nid]
        return out

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per wrapped callable: calls, spans, busy and self seconds."""
        return {
            name: {"calls": self.calls[nid], "spans": self.slices[nid],
                   "busy_s": self.busy[nid], "self_s": self.self_time[nid]}
            for nid, name in enumerate(self.names)
        }

    def write(self, trace_path, layers_path) -> None:
        """Write the kept spans as a Chrome trace and the totals as JSON."""
        spans = sorted(self.spans, key=lambda s: s[2])
        t0 = spans[0][2] if spans else 0.0
        events = [
            {"name": self.names[nid], "cat": LAYERS[self.layer_of[nid]],
             "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": sid, "parent": parent}}
            for sid, nid, start, end, parent in spans
        ]
        with open(trace_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped}}, fh)
        with open(layers_path, "w") as fh:
            json.dump({"layers": self.layers(), "callables": self.by_name(),
                       "cell_angles": self.cell_angles,
                       "kept_spans": len(self.spans),
                       "dropped_spans": self.dropped}, fh, indent=1)


class _GeneratorProxy:
    """A generator stand-in that times each resumption of the real one."""

    __slots__ = ("_tracer", "_nid", "_gen")

    def __init__(self, tracer: Tracer, nid: int, gen):
        self._tracer = tracer
        self._nid = nid
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        frame = self._tracer.enter(self._nid)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.exit(frame)

    def throw(self, typ, val=None, tb=None):
        # ``yield from`` passes the legacy (type, value, traceback) triple;
        # hand the real generator a single exception instance.
        exc = typ if val is None else val
        if isinstance(exc, type):
            exc = exc()
        if tb is not None:
            exc = exc.with_traceback(tb)
        frame = self._tracer.enter(self._nid)
        try:
            return self._gen.throw(exc)
        finally:
            self._tracer.exit(frame)

    def close(self):
        frame = self._tracer.enter(self._nid)
        try:
            self._gen.close()
        finally:
            self._tracer.exit(frame)


def _wrap(tracer: Tracer, nid: int, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            tracer.calls[nid] += 1
            return _GeneratorProxy(tracer, nid, fn(*args, **kwargs))
        return traced_generator

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        tracer.calls[nid] += 1
        frame = tracer.enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return traced_call


def _wrap_binder(tracer: Tracer, nid: int, bind):
    @functools.wraps(bind)
    def traced_bind(*args, **kwargs):
        kernel = bind(*args, **kwargs)

        def traced_kernel(*kargs):
            # (source block, inflow_x, inflow_y, psi_z); the last inflow
            # carries one column per angle
            tracer.calls[nid] += 1
            tracer.cell_angles += kargs[0].size * kargs[-1].shape[-1]
            frame = tracer.enter(nid)
            try:
                return kernel(*kargs)
            finally:
                tracer.exit(frame)
        return traced_kernel
    return traced_bind


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the block's duration; always restore them."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for layer, module, qualname in TARGETS:
            cls_name, attr = qualname.split(".")
            owner = getattr(importlib.import_module(module), cls_name)
            raw = owner.__dict__[attr]
            nid = tracer.register(layer, f"{layer}.{qualname}")
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, nid, raw.__func__))
            else:
                wrapped = _wrap(tracer, nid, raw)
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, raw))
        layer, module, attr = KERNEL_TARGET
        owner = importlib.import_module(module)
        raw = getattr(owner, attr)
        nid = tracer.register(layer, f"{layer}.kernel")
        setattr(owner, attr, _wrap_binder(tracer, nid, raw))
        restore.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)
