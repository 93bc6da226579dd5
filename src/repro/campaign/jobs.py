"""The campaign job model: specs, states, outcomes, and content addressing.

A campaign is a list of :class:`JobSpec`\\ s — frozen descriptions of
one simulation run: *which* scenario, with *what* configuration, under
*which* seed, against *which* code.  Every DES run in this repository
is a pure function of exactly that tuple (the engine's determinism
contract), which makes the workload perfectly cacheable: the spec's
canonical-JSON SHA-256 digest is the content address of its artifact
in the :class:`~repro.campaign.store.ArtifactStore`.

Canonicalization rules
----------------------
:func:`canonical_json` is the single serialization every digest in the
campaign layer is computed over:

* object keys sorted recursively, no insignificant whitespace;
* only JSON-native types (``dict``/``list``/``str``/``int``/``float``/
  ``bool``/``None``) — anything else raises ``TypeError``;
* ``NaN``/``Infinity`` rejected (``allow_nan=False``): a non-finite
  artifact is a bug, not a cacheable result;
* floats serialize via :func:`repr` round-tripping, so a cached
  artifact re-read from disk is *bitwise* identical to the freshly
  computed one.

``code_version`` defaults to the installed package version
(:data:`repro.__version__`); bump it — or pass your own string — and
every previously cached artifact misses, forcing recomputation against
the new code.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "TERMINAL_STATES",
    "JOB_STATES",
    "canonical_json",
    "content_digest",
    "default_code_version",
    "JobSpec",
    "JobOutcome",
]

#: job lifecycle states (a job moves pending -> running -> done/failed;
#: a cache hit goes straight pending -> done with ``cached=True``)
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (PENDING, RUNNING, DONE, FAILED)
#: states a job never leaves (journal replay stops updating at these)
TERMINAL_STATES = (DONE, FAILED)


def canonical_json(obj: Any) -> str:
    """The one canonical serialization digests are computed over.

    Recursively key-sorted, whitespace-free, ASCII-only, JSON-native
    types only, non-finite floats rejected.  Two dicts that differ only
    in insertion order serialize identically.
    """
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_digest(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def default_code_version() -> str:
    """The cache-invalidation token: the installed package version."""
    import repro

    return f"repro-{repro.__version__}"


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One deterministic simulation request.

    ``config`` is stored as a plain dict (JSON-native values only).  Two
    specs are equal exactly when their digests are: differently ordered
    dicts, or a tuple and the list its wire form carries, are the same
    spec, while ``1`` and ``1.0`` are not.  Specs are frozen: the digest
    is computed once on first access and describes the spec forever.
    """

    scenario: str
    config: Mapping[str, Any]
    seed: int
    code_version: str = field(default_factory=default_code_version)

    def __post_init__(self):
        if not self.scenario:
            raise ValueError("scenario must be a non-empty string")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        # Fail at construction, not at hash time, on non-JSON config.
        canonical_json(dict(self.config))

    # The content digest *is* the identity the campaign layer uses.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobSpec):
            return NotImplemented
        return self.digest == other.digest

    # unhashable, like the dict it carries; key by ``digest`` instead
    __hash__ = None  # type: ignore[assignment]

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able form (the worker-pool wire format)."""
        return {
            "scenario": self.scenario,
            "config": dict(self.config),
            "seed": self.seed,
            "code_version": self.code_version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            scenario=data["scenario"],
            config=dict(data["config"]),
            seed=data["seed"],
            code_version=data["code_version"],
        )

    @functools.cached_property
    def digest(self) -> str:
        """The content address: SHA-256 over the canonical spec JSON."""
        return content_digest(self.to_dict())

    @property
    def short(self) -> str:
        """First 12 hex chars of :attr:`digest` (log/event labels)."""
        return self.digest[:12]


@dataclass
class JobOutcome:
    """Final state of one submitted job: what the pool settles, what a
    cache hit or a journal restore yields, and one row of the report."""

    spec: JobSpec
    digest: str
    state: str                  # done | failed
    cached: bool = False
    attempts: int = 0           # executor attempts (0 for a cache hit)
    error: str | None = None
    artifact: dict | None = None
    artifact_sha256: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "digest": self.digest,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
            "error": self.error,
            "artifact_sha256": self.artifact_sha256,
            "artifact": self.artifact,
        }
