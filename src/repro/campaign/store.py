"""The content-addressed artifact cache.

Artifacts live on disk under ``root/<aa>/<digest>.json`` where
``digest`` is the owning :class:`~repro.campaign.jobs.JobSpec`'s
SHA-256 content address (``aa`` = its first two hex chars, the usual
fan-out so directories stay small at campaign scale).  Each file is a
self-describing envelope::

    {
      "format": 1,
      "spec": {...},                # the full spec, for audit/debug
      "spec_digest": "...",         # must match the requesting spec
      "artifact_sha256": "...",     # digest of canonical artifact JSON
      "artifact": {...}             # the cached result payload
    }

Reads are paranoid: a file that is missing, truncated, not JSON (or
not even UTF-8 after a media bit-flip), from a different format
version, keyed by a different spec digest, whose embedded spec no
longer hashes to its recorded ``spec_digest``, or whose payload no
longer matches its recorded ``artifact_sha256`` is treated as a cache
**miss** (and counted in :attr:`ArtifactStore.corrupt` when it existed
but failed verification) — the service then recomputes and atomically
rewrites it, which counts as a **heal**.  Hits and misses are counted
by the campaign report, from its own outcomes.  Writes go through a
same-directory temp file that is ``fsync``\\ ed (and the directory
after the rename) before the write is considered durable, so a crashed
or power-cut writer can lose the entry at worst, never tear a verified
read.  The write path consults :func:`repro.campaign.chaos.check_write`
so the chaos harness can inject disk-full faults.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Any

from repro.campaign import chaos
from repro.campaign.jobs import JobSpec, canonical_json, content_digest

__all__ = ["ArtifactStore", "STORE_FORMAT"]

#: envelope schema version; bump on incompatible layout changes
STORE_FORMAT = 1


def _fsync_dir(path: pathlib.Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ArtifactStore:
    """On-disk, content-addressed cache of job artifacts.

    The store never judges freshness — the content address already
    encodes scenario, config, seed, and code version, so an entry is
    valid for as long as its bytes verify.  The corrupt and healed
    counters accumulate over the store's lifetime and reach the
    campaign report through :meth:`stats`.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.corrupt = 0
        self.healed = 0
        #: digests whose last read failed verification; a subsequent
        #: put over one of them counts as a heal
        self._corrupt_digests: set[str] = set()

    def path_for(self, spec: JobSpec) -> pathlib.Path:
        """Where ``spec``'s artifact lives (whether or not it exists)."""
        digest = spec.digest
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, spec: JobSpec) -> tuple[dict[str, Any], str] | None:
        """Verified read: ``spec``'s cached artifact with the
        ``artifact_sha256`` it was verified against, or ``None``.

        Verification covers the envelope format, the key (``spec_digest``
        must match the requesting spec), the embedded spec (must hash
        back to ``spec_digest`` — catches bit-flips in the audit copy),
        and the payload (must hash to ``artifact_sha256``).  A file that
        exists but fails it counts as corrupt.
        """
        path = self.path_for(spec)
        try:
            data = json.loads(path.read_text())
            if (
                data["format"] == STORE_FORMAT
                and data["spec_digest"] == spec.digest
                and content_digest(data["spec"]) == data["spec_digest"]
                and content_digest(data["artifact"]) == data["artifact_sha256"]
            ):
                return data["artifact"], data["artifact_sha256"]
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, unreadable, bit-flipped into invalid UTF-8, or
            # not a JSON envelope.
            if not path.exists():
                return None
        # Existed but failed verification: corrupt/truncated/foreign.
        self.corrupt += 1
        self._corrupt_digests.add(spec.digest)
        return None

    def put(self, spec: JobSpec, artifact: dict[str, Any],
            artifact_sha256: str) -> pathlib.Path:
        """Durably and atomically cache ``artifact`` under ``spec``'s
        address: temp file in the same directory, fsync the file,
        ``os.replace``, fsync the directory.  ``artifact_sha256`` is the
        content digest the caller computed; a wrong one fails the next
        read's verification, and the recompute heals the entry."""
        chaos.check_write("store")
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "format": STORE_FORMAT,
            "spec": spec.to_dict(),
            "spec_digest": spec.digest,
            "artifact_sha256": artifact_sha256,
            "artifact": artifact,
        }
        payload = canonical_json(envelope)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{spec.short}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(path.parent)
        if spec.digest in self._corrupt_digests:
            self._corrupt_digests.discard(spec.digest)
            self.healed += 1
        # After the write is durable: the chaos harness may now delete
        # the whole store out from under us (a wiped scratch directory).
        # The next put heals the tree via mkdir(parents=True) above.
        chaos.maybe_vanish_store(self.root)
        return path

    def __len__(self) -> int:
        """Number of artifact files currently on disk."""
        return sum(1 for _ in self.root.glob("??/*.json"))

    def stats(self) -> dict[str, int]:
        """Lifetime corruption/heal counters and the entry count
        (JSON-able)."""
        return {
            "corrupt": self.corrupt,
            "healed": self.healed,
            "entries": len(self),
        }
