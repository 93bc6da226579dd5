"""Retry/timeout/exponential-backoff policies, shared across layers.

Two things live here:

* :class:`RetryPolicy` — the one seeded exponential-backoff schedule
  every retry loop in the repository draws from: SimMPI message
  retransmission (via :class:`DeliveryPolicy`) and the campaign worker
  pool's crash retries (:mod:`repro.campaign.workers`).  Delays are a
  pure function of ``(seed, attempt)`` — jitter comes from a hash of
  both, never from shared RNG state — so a retry *schedule* is
  deterministic per seed and independent of how many other retry loops
  are running (``tests/test_resilience.py`` property-tests this).
* :class:`DeliveryPolicy` — per-message delivery semantics for SimMPI:
  it decides, per transmission attempt, whether a message crosses the
  fabric, and delegates its backoff schedule to an embedded jitter-free
  :class:`RetryPolicy`.  :class:`~repro.comm.mpi.SimMPI` consults it
  only when one is installed — ``SimMPI(..., delivery=None)`` (the
  default) keeps the perfect-fabric fast path byte-for-byte identical
  to the historical behavior, a property the perf smoke tier asserts
  (``benchmarks/perf/perf_resilience.py``).

Two loss mechanisms compose:

* **Health.**  A message to or from a node marked failed in the shared
  :class:`~repro.resilience.health.FabricHealth` ledger is never
  delivered — retries burn out and the send raises
  :class:`~repro.comm.mpi.DeliveryError`.
* **Random loss.**  ``drop_probability`` models a lossy/flaky link;
  draws come from the policy's private seeded RNG, so runs are
  deterministic under the engine's determinism contract.

The default-constructed policy (``DeliveryPolicy()``) is *perfect*:
no health ledger, zero drop probability — installing it changes no
event timing, which ``tests/test_resilience.py`` pins against the
policy-free path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import inf

from repro.resilience.health import FabricHealth
from repro.units import US

__all__ = ["RetryPolicy", "DeliveryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """A seeded, bounded exponential-backoff schedule.

    ``delay(attempt)`` is ``base_delay * backoff**attempt`` capped at
    ``max_delay``, optionally spread by ``jitter``: with ``jitter=j``
    the capped delay is scaled by a factor drawn uniformly from
    ``[1 - j, 1 + j]``.  The draw is seeded by ``(seed, attempt)``
    alone — no RNG state is carried between calls — so the full
    schedule is a pure function of the policy's fields: replayable,
    order-independent, and bounded by ``max_delay * (1 + jitter)``.

    ``max_retries`` is the retry *budget* the schedule serves; loops
    that consume a policy read it to know when to give up (attempt
    numbers run ``0 .. max_retries - 1``).
    """

    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0
    max_retries: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.base_delay < inf:
            raise ValueError(
                f"base_delay must be finite and >= 0, got {self.base_delay!r}"
            )
        if not 1.0 <= self.backoff < inf:
            raise ValueError(f"backoff must be finite and >= 1, got {self.backoff!r}")
        if not 0 < self.max_delay < inf:
            raise ValueError(
                f"max_delay must be finite and positive, got {self.max_delay!r}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def delay(self, attempt: int) -> float:
        """Backoff wait before retry number ``attempt + 1`` (seconds)."""
        delay = self.base_delay * self.backoff**attempt
        if delay >= self.max_delay:
            delay = self.max_delay
        if self.jitter:
            # Hash-seeded draw: deterministic per (seed, attempt), no
            # state shared with any other retry loop.  String seeds go
            # through CPython's sha512 path, stable across processes.
            u = random.Random(f"retry:{self.seed}:{attempt}").random()
            delay *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return delay


@dataclass
class DeliveryPolicy:
    """Per-message delivery and retransmission policy.

    Parameters
    ----------
    drop_probability:
        Chance an attempt is lost in transit (0 = perfect link).
    ack_timeout:
        Seconds the sender waits for the (unmodeled) ack before the
        first retransmission.
    max_retries:
        Retransmissions attempted before the send raises
        :class:`~repro.comm.mpi.DeliveryError`.
    backoff:
        Multiplier applied to the wait per retry (exponential backoff).
    max_delay:
        Cap on any single backoff wait.
    seed:
        Seed of the private loss RNG.
    health:
        Optional shared failed-node ledger; when set, endpoints marked
        failed make every attempt a loss.
    """

    drop_probability: float = 0.0
    ack_timeout: float = 50 * US
    max_retries: int = 8
    backoff: float = 2.0
    max_delay: float = 0.01
    seed: int = 0
    health: FabricHealth | None = None
    _rng: random.Random = field(init=False, repr=False, compare=False)
    _retry: RetryPolicy = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if not 0 < self.ack_timeout < inf:
            raise ValueError(
                f"ack_timeout must be finite and positive, got {self.ack_timeout!r}"
            )
        self._rng = random.Random(self.seed)
        # Jitter-free: a retransmission schedule is part of the DES
        # timeline, which must stay bit-identical to the seed behavior.
        # RetryPolicy checks backoff, max_delay and max_retries.
        self._retry = RetryPolicy(
            base_delay=self.ack_timeout, backoff=self.backoff,
            max_delay=self.max_delay, jitter=0.0,
            max_retries=self.max_retries, seed=self.seed,
        )

    def delivered(self, src, dst, size: int) -> bool:
        """Whether one transmission attempt from ``src`` to ``dst``
        (``Location`` endpoints) reaches the destination mailbox."""
        health = self.health
        if health is not None and not (
            health.node_ok(src.node) and health.node_ok(dst.node)
        ):
            return False
        p = self.drop_probability
        if p <= 0.0:
            return True
        return self._rng.random() >= p

    def retry_delay(self, attempt: int) -> float:
        """Backoff wait before retransmission number ``attempt + 1``
        (delegates to the shared :class:`RetryPolicy` schedule)."""
        return self._retry.delay(attempt)
