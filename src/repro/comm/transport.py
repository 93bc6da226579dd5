"""Piecewise LogGP-style point-to-point transport model.

A :class:`Transport` charges a message of *s* bytes

* below the eager threshold:  ``T(s) = latency + s / eager_bandwidth``
* above it (rendezvous):      ``T(s) = latency + rendezvous_latency
  + s / bandwidth``

which produces the classic saturating bandwidth curve with a protocol
knee.  :class:`PipelinePath` composes transports store-and-forward (the
Cell -> Opteron -> Opteron -> Cell relay of §IV-C) with optional copy
costs at relay points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf
from typing import Sequence

__all__ = ["Transport", "PipelinePath", "set_transport_observer"]

#: cap on each instance's memoized size -> time curve points; real
#: workloads use a handful of message sizes, so this is generous
_TIME_CACHE_MAX = 4096

#: module-level observability hook: when a recorder is installed via
#: :func:`set_transport_observer`, every cost-model evaluation counts a
#: ``transport.cache_hit`` / ``transport.cache_miss`` on the transport's
#: name track.  Module-level (not per-instance) because transports are
#: frozen dataclasses shared across fabrics; None keeps the hot path to
#: one global load and an ``is None`` test.
_OBSERVER = None


def set_transport_observer(obs) -> None:
    """Install (or with ``None`` remove) the module's cost-model
    observer.  ``obs`` is normalized like every ``obs=`` argument: a
    disabled recorder counts as ``None``."""
    global _OBSERVER
    if obs is not None:
        from repro.obs.recorder import active

        obs = active(obs)
    _OBSERVER = obs


@dataclass(frozen=True)
class Transport:
    """One point-to-point communication mechanism."""

    name: str
    #: zero-byte one-way latency, seconds
    latency: float
    #: large-message (rendezvous) bandwidth, B/s
    bandwidth: float
    #: messages at or below this size use the eager path, bytes
    eager_threshold: int = 0
    #: effective small-message bandwidth (copy-in/copy-out path), B/s;
    #: defaults to the large-message bandwidth (no eager penalty)
    eager_bandwidth: float | None = None
    #: extra handshake latency on the rendezvous path, seconds
    rendezvous_latency: float = 0.0
    #: per-direction fraction of unidirectional rate retained when both
    #: directions are saturated (Fig 7's 0.64 / 0.70 factors)
    bidirectional_factor: float = 1.0

    def __post_init__(self):
        if self.latency < 0 or self.rendezvous_latency < 0:
            raise ValueError(f"{self.name}: latencies must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.eager_bandwidth is not None and self.eager_bandwidth <= 0:
            raise ValueError(f"{self.name}: eager bandwidth must be positive")
        if not 0 < self.bidirectional_factor <= 1:
            raise ValueError(f"{self.name}: bidirectional factor in (0, 1]")
        # Per-instance size -> time cache (the instance is frozen, so the
        # curve never changes).  SimMPI sends the same handful of message
        # sizes millions of times; this turns the piecewise evaluation
        # into one dict hit.  Excluded from dataclass eq/hash/repr.
        object.__setattr__(self, "_time_cache", {})

    # -- core cost model ----------------------------------------------------
    def one_way_time(self, size_bytes: int) -> float:
        """One-way delivery time of a ``size_bytes`` message, seconds."""
        cache = self._time_cache
        cached = cache.get(size_bytes)
        if cached is not None:
            if _OBSERVER is not None:
                _OBSERVER.count("transport.cache_hit", track=self.name)
            return cached
        if _OBSERVER is not None:
            _OBSERVER.count("transport.cache_miss", track=self.name)
        if not 0 <= size_bytes < inf:
            raise ValueError(f"message size must be finite and >= 0, got {size_bytes!r}")
        eager_bw = self.eager_bandwidth or self.bandwidth
        if size_bytes <= self.eager_threshold:
            result = self.latency + size_bytes / eager_bw
        else:
            result = self.latency + self.rendezvous_latency + size_bytes / self.bandwidth
            if self.eager_threshold > 0:
                # Monotonicity across the protocol knee: a message one byte
                # over the threshold cannot be cheaper than one at it.
                at_knee = self.latency + self.eager_threshold / eager_bw
                result = max(result, at_knee)
        if len(cache) < _TIME_CACHE_MAX:
            cache[size_bytes] = result
        return result

    def effective_bandwidth(self, size_bytes: int) -> float:
        """Achieved unidirectional B/s at one message size."""
        if size_bytes <= 0:
            return 0.0
        return size_bytes / self.one_way_time(size_bytes)

    def bidirectional_sum_bandwidth(self, size_bytes: int) -> float:
        """Sum of both directions' achieved B/s under full-duplex load
        (the quantity Fig 7 plots as 'bidirectional')."""
        return 2 * self.effective_bandwidth(size_bytes) * self.bidirectional_factor

    def bandwidth_curve(self, sizes: Sequence[int]) -> list[tuple[int, float]]:
        """(size, achieved B/s) pairs for a sweep of message sizes."""
        return [(s, self.effective_bandwidth(s)) for s in sizes]

    def serialization_time(self, size_bytes: int) -> float:
        """Sender-side occupancy: total time minus the wire latency."""
        return self.one_way_time(size_bytes) - self.latency

    def derated(self, factor: float, name: str | None = None) -> "Transport":
        """A copy of this transport at ``factor`` of its bandwidth.

        Models a degraded path — a fabric rerouted around failed links
        delivers the same latencies over fewer parallel lanes, so only
        the bandwidth terms scale.  ``factor`` is the retained fraction,
        in (0, 1]; ``derated(1.0)`` is a plain copy.
        """
        if not 0 < factor <= 1:
            raise ValueError("derate factor must be in (0, 1]")
        return replace(
            self,
            name=name if name is not None else f"{self.name}@{factor:g}",
            bandwidth=self.bandwidth * factor,
            eager_bandwidth=(
                None if self.eager_bandwidth is None
                else self.eager_bandwidth * factor
            ),
        )


@dataclass(frozen=True)
class PipelinePath:
    """A store-and-forward chain of transports with per-relay copies.

    ``legs`` are crossed in sequence; between consecutive legs the relay
    host performs a memory copy at ``relay_copy_bandwidth`` (0 disables
    the copy term).  The zero-byte latency of the path is the sum of leg
    latencies — exactly the Fig 6 decomposition.
    """

    name: str
    legs: tuple[Transport, ...]
    relay_copy_bandwidth: float = 0.0
    bidirectional_factor: float = 1.0

    def __post_init__(self):
        if not self.legs:
            raise ValueError(f"path {self.name!r} needs at least one leg")
        if self.relay_copy_bandwidth < 0:
            raise ValueError(f"path {self.name!r}: copy bandwidth must be >= 0")
        if not 0 < self.bidirectional_factor <= 1:
            raise ValueError(f"path {self.name!r}: bidirectional factor in (0, 1]")
        # Same per-instance memoization as Transport.one_way_time.
        object.__setattr__(self, "_time_cache", {})

    @property
    def zero_byte_latency(self) -> float:
        """Sum of the legs' zero-byte latencies (Fig 6's 8.78 µs)."""
        return sum(leg.latency for leg in self.legs)

    def latency_breakdown(self) -> list[tuple[str, float]]:
        """Per-leg zero-byte latency, in path order (Fig 6)."""
        return [(leg.name, leg.latency) for leg in self.legs]

    def one_way_time(self, size_bytes: int) -> float:
        """Store-and-forward delivery time for ``size_bytes``."""
        cache = self._time_cache
        cached = cache.get(size_bytes)
        if cached is not None:
            if _OBSERVER is not None:
                _OBSERVER.count("transport.cache_hit", track=self.name)
            return cached
        if _OBSERVER is not None:
            _OBSERVER.count("transport.cache_miss", track=self.name)
        total = sum(leg.one_way_time(size_bytes) for leg in self.legs)
        if self.relay_copy_bandwidth > 0 and len(self.legs) > 1:
            relays = len(self.legs) - 1
            total += relays * size_bytes / self.relay_copy_bandwidth
        if len(cache) < _TIME_CACHE_MAX:
            cache[size_bytes] = total
        return total

    def effective_bandwidth(self, size_bytes: int) -> float:
        """Achieved unidirectional B/s over the whole path."""
        if size_bytes <= 0:
            return 0.0
        return size_bytes / self.one_way_time(size_bytes)

    def bidirectional_sum_bandwidth(self, size_bytes: int) -> float:
        """Both directions' summed B/s under full-duplex load."""
        return 2 * self.effective_bandwidth(size_bytes) * self.bidirectional_factor

    def bandwidth_curve(self, sizes: Sequence[int]) -> list[tuple[int, float]]:
        """(size, achieved B/s) pairs for a sweep of message sizes."""
        return [(s, self.effective_bandwidth(s)) for s in sizes]

    def serialization_time(self, size_bytes: int) -> float:
        """Sender-side occupancy (total minus wire latency)."""
        return self.one_way_time(size_bytes) - self.zero_byte_latency
