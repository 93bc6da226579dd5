"""The campaign write-ahead journal: durable, resumable execution.

A journaled campaign appends one JSON line per job-state transition to
an append-only journal file.  If the campaign process dies — power
loss, OOM-kill, a chaos-harness ``SIGKILL`` — the journal plus the
content-addressed :class:`~repro.campaign.store.ArtifactStore` are
enough to reconstruct the exact campaign state:

* jobs whose terminal record landed (``finished`` / ``failed`` /
  ``cached-hit``) are **never recomputed** — their artifacts are
  restored from the store by recorded hash;
* jobs whose last record is ``started`` were in flight at the crash
  and are **re-queued** (re-run with the same attempt number — the
  campaign died, not the job, so no retry strike);
* jobs with no record are still queued and run normally.

File format (``format`` 1): line 1 is the header record carrying the
full spec list, the store root, and the pool knobs; every subsequent
line is a state record ``{"type": "state", "index": i, ...}``.  Lines
are canonical JSON (:func:`~repro.campaign.jobs.canonical_json`), so
the journal is byte-deterministic for a deterministic campaign.

Durability model
----------------
Appends reach the OS on every record (``flush``); ``fsync`` is issued
on *terminal* records only.  Losing a ``started`` record merely
re-queues the job on resume; losing a terminal record costs one
recomputation, never correctness — the store, not the journal, is the
artifact of record.  The reader tolerates a torn final line (a crash
mid-append) and reports the byte length of the prefix it trusts;
:meth:`Journal.reopen` truncates the file to that length and appends,
so a resumed journal keeps every attempt of every run — the record a
post-mortem wants.

Chaos hooks: every append consults
:func:`repro.campaign.chaos.check_write` (injected disk-full) and,
after the bytes land, :func:`~repro.campaign.chaos.maybe_kill_campaign`
(kill-at-every-boundary testing).  With no plan installed both are a
dict lookup.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.campaign import chaos
from repro.campaign.jobs import (
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    JobSpec,
    canonical_json,
)

__all__ = ["JOURNAL_FORMAT", "Journal", "JournalState", "read_journal"]

#: journal schema version; bump on incompatible record-shape changes
JOURNAL_FORMAT = 1


@dataclass
class JobState:
    """Reconstructed state of one job (last journal record wins)."""

    state: str = PENDING            # pending | running | done | failed
    attempts: int = 0               # attempts started so far
    cached: bool = False            # terminal state came from a cache hit
    artifact_sha256: str | None = None
    error: str | None = None


@dataclass
class JournalState:
    """Everything :func:`read_journal` recovers from a journal file."""

    specs: list[JobSpec]
    store_root: str | None
    options: dict[str, Any]
    jobs: dict[int, JobState] = field(default_factory=dict)
    records: int = 0                # well-formed records read (incl. header)
    length: int = 0                 # bytes of the trusted prefix
    complete: bool = False          # an end record landed

    def job(self, index: int) -> JobState:
        return self.jobs.get(index, JobState())

    def summary(self) -> dict[str, int]:
        counts = {PENDING: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for i in range(len(self.specs)):
            counts[self.job(i).state] += 1
        return counts


def read_journal(path: str | os.PathLike) -> JournalState:
    """Replay a journal into a :class:`JournalState`.

    Raises ``ValueError`` on a missing/alien header; a torn final line
    (crash mid-append) is silently dropped — every complete record
    before it still counts, and :attr:`JournalState.length` ends there.
    """
    lines = pathlib.Path(path).read_bytes().split(b"\n")
    lines.pop()  # "" after the final newline, or a torn final append
    if not lines:
        raise ValueError(f"journal {path!s} has no header record")
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise ValueError(f"journal {path!s} header is not JSON") from None
    if header.get("type") != "campaign":
        raise ValueError(
            f"journal {path!s} is not a campaign journal "
            f"(header type {header.get('type')!r})"
        )
    fmt = header.get("format")
    if fmt != JOURNAL_FORMAT:
        # Distinguish "written by a newer repro" from "not a journal at
        # all": a clear upgrade message beats a generic parse failure.
        raise ValueError(
            f"journal {path!s} has format {fmt!r}, but this version of "
            f"repro only reads format {JOURNAL_FORMAT} — it was likely "
            f"written by a newer version; upgrade repro or re-run the "
            f"campaign to produce a fresh journal"
        )
    state = JournalState(
        specs=[JobSpec.from_dict(s) for s in header["specs"]],
        store_root=header.get("store"),
        options=dict(header.get("options", {})),
        records=1,
        length=len(lines[0]) + 1,
    )
    for line in lines[1:]:
        try:
            rec = json.loads(line)
        except ValueError:
            break  # torn mid-file record: nothing after it is trusted
        state.records += 1
        state.length += len(line) + 1
        kind = rec.get("type")
        if kind == "end":
            state.complete = True
            continue
        if kind != "state":
            continue
        index = rec["index"]
        job = state.jobs.setdefault(index, JobState())
        jstate = rec["state"]
        if jstate == RUNNING:
            job.state = RUNNING
            job.attempts = rec.get("attempt", job.attempts + 1)
        elif jstate in TERMINAL_STATES:
            job.state = jstate
            job.attempts = rec.get("attempts", job.attempts)
            job.cached = bool(rec.get("cached", False))
            job.artifact_sha256 = rec.get("artifact_sha256")
            job.error = rec.get("error")
    return state


class Journal:
    """Append-only writer for one campaign's state transitions."""

    def __init__(self, path: str | os.PathLike):
        self.path = pathlib.Path(path)
        self.records = 0
        self._fh = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        specs: Sequence[JobSpec],
        *,
        store_root: str | None,
        options: Mapping[str, Any] | None = None,
    ) -> "Journal":
        """Start a fresh journal (truncating any prior file) and write
        its header record."""
        journal = cls(path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._fh = open(journal.path, "w")
        journal._append(
            {
                "type": "campaign",
                "format": JOURNAL_FORMAT,
                "specs": [s.to_dict() for s in specs],
                "store": store_root,
                "options": dict(options or {}),
            },
            terminal=True,
        )
        return journal

    @classmethod
    def reopen(cls, path: str | os.PathLike,
               state: JournalState) -> "Journal":
        """Reopen a journal for resume: cut it to the prefix
        :func:`read_journal` trusted (dropping a torn tail) and append
        after it."""
        journal = cls(path)
        os.truncate(journal.path, state.length)
        journal._fh = open(journal.path, "a")
        journal.records = state.records
        return journal

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    # -- record writers ------------------------------------------------------

    def _append(self, record: dict[str, Any], *, terminal: bool) -> None:
        """One journal append: chaos write check, canonical JSON line,
        flush (+ fsync if terminal), then the kill-boundary hook."""
        chaos.check_write("journal")
        self._fh.write(canonical_json(record) + "\n")
        self._fh.flush()
        if terminal:
            os.fsync(self._fh.fileno())
        self.records += 1
        chaos.maybe_kill_campaign(self.records)

    def record_started(self, index: int, attempt: int) -> None:
        self._append(
            {"type": "state", "index": index, "state": RUNNING,
             "attempt": attempt},
            terminal=False,
        )

    def record_cached_hit(self, index: int, artifact_sha256: str) -> None:
        self._append(
            {"type": "state", "index": index, "state": DONE,
             "attempts": 0, "cached": True,
             "artifact_sha256": artifact_sha256},
            terminal=True,
        )

    def record_finished(self, index: int, attempts: int,
                        artifact_sha256: str) -> None:
        self._append(
            {"type": "state", "index": index, "state": DONE,
             "attempts": attempts, "cached": False,
             "artifact_sha256": artifact_sha256},
            terminal=True,
        )

    def record_failed(self, index: int, attempts: int,
                      error: str | None) -> None:
        self._append(
            {"type": "state", "index": index, "state": FAILED,
             "attempts": attempts, "error": error},
            terminal=True,
        )

    def record_end(self, summary: Mapping[str, int]) -> None:
        self._append({"type": "end", "summary": dict(summary)},
                     terminal=True)
