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

__all__ = ["Transport", "PipelinePath"]


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
        if not (0 <= self.latency < inf and 0 <= self.rendezvous_latency < inf):
            raise ValueError(f"{self.name}: latencies must be finite and >= 0")
        if not 0 < self.bandwidth < inf:
            raise ValueError(f"{self.name}: bandwidth must be finite and positive")
        if self.eager_bandwidth is not None and not 0 < self.eager_bandwidth < inf:
            raise ValueError(f"{self.name}: eager bandwidth must be finite and positive")
        if not 0 < self.bidirectional_factor <= 1:
            raise ValueError(f"{self.name}: bidirectional factor in (0, 1]")

    # -- core cost model ----------------------------------------------------
    def one_way_time(self, size_bytes: int) -> float:
        """One-way delivery time of a ``size_bytes`` message, seconds."""
        if not 0 <= size_bytes < inf:
            raise ValueError(f"message size must be finite and >= 0, got {size_bytes!r}")
        eager_bw = self.eager_bandwidth or self.bandwidth
        if size_bytes <= self.eager_threshold:
            return self.latency + size_bytes / eager_bw
        result = self.latency + self.rendezvous_latency + size_bytes / self.bandwidth
        if self.eager_threshold > 0:
            # Monotonicity across the protocol knee: a message one byte
            # over the threshold cannot be cheaper than one at it.
            at_knee = self.latency + self.eager_threshold / eager_bw
            result = max(result, at_knee)
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
        if not 0 <= self.relay_copy_bandwidth < inf:
            raise ValueError(f"path {self.name!r}: copy bandwidth must be finite and >= 0")
        if not 0 < self.bidirectional_factor <= 1:
            raise ValueError(f"path {self.name!r}: bidirectional factor in (0, 1]")

    @property
    def zero_byte_latency(self) -> float:
        """Sum of the legs' zero-byte latencies (Fig 6's 8.78 µs)."""
        return sum(leg.latency for leg in self.legs)

    def latency_breakdown(self) -> list[tuple[str, float]]:
        """Per-leg zero-byte latency, in path order (Fig 6)."""
        return [(leg.name, leg.latency) for leg in self.legs]

    def one_way_time(self, size_bytes: int) -> float:
        """Store-and-forward delivery time for ``size_bytes``."""
        total = sum(leg.one_way_time(size_bytes) for leg in self.legs)
        if self.relay_copy_bandwidth > 0 and len(self.legs) > 1:
            relays = len(self.legs) - 1
            total += relays * size_bytes / self.relay_copy_bandwidth
        return total

    def effective_bandwidth(self, size_bytes: int) -> float:
        """Achieved unidirectional B/s over the whole path."""
        if size_bytes <= 0:
            return 0.0
        return size_bytes / self.one_way_time(size_bytes)

    def bidirectional_sum_bandwidth(self, size_bytes: int) -> float:
        """Both directions' summed B/s under full-duplex load."""
        return 2 * self.effective_bandwidth(size_bytes) * self.bidirectional_factor

    def serialization_time(self, size_bytes: int) -> float:
        """Sender-side occupancy (total minus wire latency)."""
        return self.one_way_time(size_bytes) - self.zero_byte_latency
