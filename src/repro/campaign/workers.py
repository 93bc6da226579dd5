"""The campaign worker pool: long-lived worker processes, one pipe each.

Every DES run is single-threaded and a pure function of its spec, so
the pool is the whole parallelization story.  ``workers=N`` starts up
to ``N`` workers (``workers=1`` is a pool of one), each with its own
pipe and at most one job, so the supervisor always knows which job
each worker holds.  It waits on every pipe and process sentinel
(:func:`multiprocessing.connection.wait`), with the nearest job
deadline or retry backoff as its timeout.

* A worker that dies (SIGKILL, ``os._exit``, OOM) is blamed for
  exactly the job it held and replaced.  The job retries after a
  seeded :data:`RETRY_BACKOFF` delay, up to ``max_retries`` extra
  attempts.  A job that *raises* fails at once: a deterministic
  exception would raise again.
* A job past its ``timeout`` fails; only its worker is killed and
  replaced.
* Between jobs a worker blocks on its pipe and exits at EOF, so a dead
  supervisor leaves no orphans.  For that EOF to come, a forked worker
  closes the supervisor-side pipe ends it inherited: its own and its
  elder siblings'.

Each job settles into a :class:`~repro.campaign.jobs.JobOutcome`.
Outcomes and outcome events (``finished`` / ``failed``) come in
submission order at any worker count.  ``on_result`` fires at
resolution, in completion order: the service's hook for caching
artifacts and journaling terminal states as soon as they exist.
"""

from __future__ import annotations

import collections
import heapq
import math
import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from repro.campaign import chaos
from repro.campaign.jobs import (
    DONE, FAILED, JobOutcome, JobSpec, content_digest,
)
from repro.campaign.scenarios import run_job
from repro.resilience.policy import RetryPolicy

__all__ = ["RETRY_BACKOFF", "check_pool_args", "run_specs"]

#: progress callback signature: (event, index, spec, detail)
ProgressFn = Callable[[str, int, JobSpec, dict], None]
#: completion-order result hook: (index, outcome) at resolution time
ResultFn = Callable[[int, JobOutcome], None]

#: crash-retry backoff: short, capped, jittered, seeded
RETRY_BACKOFF = RetryPolicy(base_delay=0.05, backoff=2.0, max_delay=2.0,
                            jitter=0.25, seed=0)


def check_pool_args(workers: int, timeout: float | None,
                    max_retries: int) -> None:
    """Raise ``ValueError`` for pool arguments the pool cannot honour."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
        raise ValueError(
            f"timeout must be a positive number of seconds, got {timeout}")


def _attempt(spec: JobSpec, attempt: int) -> tuple[bool, Any]:
    """Run one attempt in a worker, between the chaos worker-kill
    hooks: ``(True, artifact)`` or ``(False, error)``."""
    try:
        chaos.maybe_kill_worker(spec.digest, attempt, "before")
        artifact = run_job(spec)
        chaos.maybe_kill_worker(spec.digest, attempt, "after")
        return True, artifact
    except Exception as exc:  # noqa: BLE001 — job errors become outcomes
        return False, f"{type(exc).__name__}: {exc}"


def _serve(conn, inherited) -> None:
    """Worker process body: one ``(spec, attempt)`` in, one reply out,
    until the supervisor's end of the pipe closes."""
    for end in inherited:
        end.close()
    while True:
        try:
            spec, attempt = conn.recv()
            conn.send(_attempt(spec, attempt))
        except (EOFError, OSError):
            return


class _Worker:
    """The supervisor's handle on one worker: process, pipe, and the
    job it holds (``index is None`` when idle)."""

    def __init__(self, elders: Sequence["_Worker"]):
        self.conn, child = multiprocessing.Pipe()
        inherited = [self.conn, *(w.conn for w in elders)]
        self.proc = multiprocessing.Process(target=_serve,
                                            args=(child, inherited))
        self.proc.start()
        child.close()
        self.index: int | None = None
        self.attempt = 0
        self.deadline: float | None = None

    def stop(self) -> None:
        """Kill the worker if it holds a job, else let it exit at EOF."""
        if self.index is not None:
            self.proc.kill()
        self.conn.close()
        self.proc.join(5.0)
        if self.proc.exitcode is None:   # it ignored the EOF
            self.proc.kill()
            self.proc.join()


def run_specs(specs: Sequence[JobSpec], *, workers: int = 1,
              timeout: float | None = None, max_retries: int = 1,
              progress: ProgressFn | None = None,
              on_result: ResultFn | None = None,
              initial_attempts: Sequence[int] | None = None,
              ) -> list[JobOutcome]:
    """Execute every spec; one :class:`JobOutcome` per spec, in
    submission order.  ``max_retries`` bounds *extra* attempts after a
    worker crash.  ``initial_attempts`` seeds per-job attempt numbers:
    resume passes those recovered from the journal, so a resumed job
    keeps its remaining budget."""
    check_pool_args(workers, timeout, max_retries)
    if initial_attempts is not None and len(initial_attempts) != len(specs):
        raise ValueError("initial_attempts must match specs length")
    return _Run(specs, workers, timeout, max_retries, progress, on_result,
                initial_attempts).pooled()


class _Run:
    """One `run_specs` invocation's mutable state."""

    def __init__(self, specs, workers, timeout, max_retries, progress,
                 on_result, initial_attempts):
        self.specs, self.workers, self.timeout = specs, workers, timeout
        self.max_retries = max_retries
        self.progress = progress or (lambda *event: None)
        self.on_result = on_result or (lambda *result: None)
        #: crash strikes per job (attempt number = crashes + 1)
        self.crashes = [max(0, int(a) - 1) for a in
                        (initial_attempts or [1] * len(specs))]
        self.outcomes: list[JobOutcome | None] = [None] * len(specs)
        #: per-job outcome-event flags (``timeout`` / ``crash``)
        self.details: list[dict] = [{}] * len(specs)
        self._emitted = 0     # outcome events emitted, in submission order

    def _settle(self, index: int, attempts: int, ok: bool, value: Any,
                **detail: Any) -> None:
        """Record job ``index``'s artifact (``ok``) or error.  `on_result`
        fires now; the outcome event waits for every earlier job."""
        spec = self.specs[index]
        if ok:
            out = JobOutcome(spec, spec.digest, DONE, attempts=attempts,
                             artifact=value,
                             artifact_sha256=content_digest(value))
        else:
            out = JobOutcome(spec, spec.digest, FAILED, attempts=attempts,
                             error=value)
        self.outcomes[index], self.details[index] = out, detail
        self.on_result(index, out)
        while (self._emitted < len(self.outcomes)
               and self.outcomes[self._emitted] is not None):
            o = self.outcomes[self._emitted]
            info = {"attempts": o.attempts, **self.details[self._emitted]}
            if o.state == FAILED:
                info["error"] = o.error
            self.progress("finished" if o.state == DONE else "failed",
                          self._emitted, o.spec, info)
            self._emitted += 1

    def pooled(self) -> list[JobOutcome]:
        self.ready = collections.deque(range(len(self.specs)))
        self.delayed: list[tuple[float, int]] = []   # (not_before, index)
        self.pool: list[_Worker] = []
        try:
            while (self.ready or self.delayed
                   or any(w.index is not None for w in self.pool)):
                now = time.monotonic()
                while self.delayed and self.delayed[0][0] <= now:
                    self.ready.append(heapq.heappop(self.delayed)[1])
                idle = [w for w in self.pool if w.index is None]
                while self.ready and (idle or len(self.pool) < self.workers):
                    if not idle:
                        self.pool.append(_Worker(self.pool))
                        idle.append(self.pool[-1])
                    self._hand(idle.pop(), self.ready.popleft(), now)
                self._wait(now)
        finally:
            for w in self.pool:
                w.stop()
        return self.outcomes

    def _hand(self, w: _Worker, index: int, now: float) -> None:
        """Give job ``index`` to idle worker ``w``."""
        w.index, w.attempt = index, self.crashes[index] + 1
        self.progress("started", index, self.specs[index],
                      {"attempt": w.attempt})
        w.deadline = None if self.timeout is None else now + self.timeout
        try:
            w.conn.send((self.specs[index], w.attempt))
        except OSError:
            pass  # it died idle: the next wait blames the job it now holds

    def _wait(self, now: float) -> None:
        """Block until a worker replies or dies, a deadline passes, or a
        retry backoff matures; then settle what happened."""
        horizon = [w.deadline for w in self.pool if w.deadline is not None]
        if self.delayed:
            horizon.append(self.delayed[0][0])
        fired = set(wait(
            [h for w in self.pool for h in (w.conn, w.proc.sentinel)],
            max(0.0, min(horizon) - now) if horizon else None,
        ))
        now = time.monotonic()
        for w in list(self.pool):
            died = w.proc.sentinel in fired
            if w.conn in fired or died:
                try:
                    reply = w.conn.recv() if w.conn.poll() else None
                except (EOFError, OSError):
                    reply = None
                if reply is not None:
                    index, w.index, w.deadline = w.index, None, None
                    self._settle(index, w.attempt, *reply)
                if reply is None or died:
                    self.pool.remove(w)
                    w.stop()
                    if w.index is not None:
                        self._crashed(w.index, now)
            elif w.deadline is not None and now >= w.deadline:
                self.pool.remove(w)
                w.stop()
                self._settle(w.index, w.attempt, False,
                             f"timeout: no result within {self.timeout}s",
                             timeout=True)

    def _crashed(self, index: int, now: float) -> None:
        """The worker holding job ``index`` died: retry it or fail it."""
        self.crashes[index] += 1
        strikes = self.crashes[index]
        if strikes > self.max_retries:
            self._settle(index, strikes, False,
                         f"worker process died ({strikes} attempt(s), "
                         "retries exhausted)", crash=True)
        else:
            heapq.heappush(self.delayed,
                           (now + RETRY_BACKOFF.delay(strikes - 1), index))
