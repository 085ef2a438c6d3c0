"""Job model and the durable job journal of the AVF job server.

A *job* is one deduplicated unit of work: a validated run-spec document
plus its result fingerprint. Its identifier is derived from that
fingerprint, so identical requests map to the same job id on every
server instance, across restarts, forever — the property the dedup
layer and crash recovery both build on.

The *journal* is an append-only JSONL file (one record per line,
flushed immediately) recording every submission and every terminal
transition. It is a versioned log of :mod:`repro.jsonlog`, like the
campaign checkpoints of :mod:`repro.sfi.runtime`, so it is
crash-consistent the same way: the reader tolerates exactly one torn
trailing record (the write a crash or SIGKILL interrupted) and refuses
corruption anywhere else. On restart the server replays the journal —
completed jobs are re-served byte-identically from their recorded
result document, submitted-but-unfinished jobs are re-enqueued and
re-executed (campaign stages resume from their checkpoint files).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.errors import JobJournalError
from repro.jsonlog import LogFormat, LogWriter, read_log

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TERMINAL_STATES = frozenset({DONE, FAILED})


def job_id_for(fingerprint: str) -> str:
    """The stable job identifier for a result fingerprint."""
    return f"job-{fingerprint[:16]}"


@dataclass
class Job:
    """One deduplicated unit of work and its lifecycle state.

    ``version`` increments on every transition; SSE watchers use it to
    emit only changes. All mutation goes through :meth:`transition`
    under the job's own condition variable, which also wakes watchers.

    A finished job holds its result document as canonical JSON text
    (``json.dumps(result, sort_keys=True)``), about a fifth of the
    memory of the dict; :attr:`result` decodes it.
    """

    id: str
    fingerprint: str
    spec: dict                     # normalized run-spec mapping
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result_text: str | None = None
    error: str | None = None
    recovered: bool = False        # replayed from the journal on restart
    version: int = 0
    cond: threading.Condition = field(
        default_factory=threading.Condition, repr=False, compare=False
    )

    @property
    def result(self) -> dict | None:
        return None if self.result_text is None else json.loads(self.result_text)

    @result.setter
    def result(self, document: dict | None) -> None:
        self.result_text = (None if document is None
                            else json.dumps(document, sort_keys=True))

    # ------------------------------------------------------------------
    def transition(self, state: str, *, result: dict | None = None,
                   error: str | None = None) -> None:
        """Move to *state*, publish result/error, wake all watchers."""
        with self.cond:
            self.state = state
            if state == RUNNING and self.started_at is None:
                self.started_at = time.time()
            if state in TERMINAL_STATES:
                self.finished_at = time.time()
            if result is not None:
                self.result = result
            if error is not None:
                self.error = error
            self.version += 1
            self.cond.notify_all()

    def reset_for_retry(self) -> None:
        """Re-queue a failed job for a fresh execution (resubmission)."""
        with self.cond:
            self.state = QUEUED
            self.started_at = None
            self.finished_at = None
            self.result_text = None
            self.error = None
            self.recovered = False
            self.version += 1
            self.cond.notify_all()

    def await_terminal(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while self.state not in TERMINAL_STATES:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self.cond.wait(remaining if remaining is not None else 1.0)
            return True

    def snapshot(self, *, include_spec: bool = False) -> dict:
        """JSON view of the job for the HTTP layer."""
        with self.cond:
            doc: dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "fingerprint": self.fingerprint,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "recovered": self.recovered,
                "version": self.version,
            }
            if include_spec:
                doc["spec"] = self.spec
            if self.result_text is not None:
                doc["result"] = self.result
            if self.error is not None:
                doc["error"] = self.error
            return doc


# ----------------------------------------------------------------------
# journal file format (a versioned JSONL log; see docs/ROBUSTNESS.md)
# ----------------------------------------------------------------------

JOURNAL_FORMAT = "repro-serve-journal"
JOURNAL_VERSION = 1
JOURNAL = LogFormat(JOURNAL_FORMAT, JOURNAL_VERSION, "journal",
                    "a serve job journal", JobJournalError)


class JobJournal(LogWriter):
    """The append-only job journal: one record per submission and per
    terminal transition, flushed as it is written."""

    def __init__(self, path: str | os.PathLike):
        super().__init__(path, JOURNAL)

    def record(self, **fields: Any) -> None:
        self.append(fields)


def load_journal(path: str | os.PathLike) -> list[dict]:
    """Read a job journal back as a list of records.

    A missing or empty file is an empty journal (first boot); otherwise
    the log reader's rules apply and a flaw raises
    :class:`~repro.errors.JobJournalError`.
    """
    log = read_log(path, JOURNAL)
    return [] if log is None else [rec for _lineno, rec in log[1]]


def replay_journal(records: list[dict]) -> Iterator[Job]:
    """Rebuild :class:`Job` objects from journal *records*.

    Yields one job per submission, in first-submission order, carrying
    the terminal state and exact result document the journal recorded
    (jobs without a terminal record come back ``queued`` for
    re-execution). Resubmissions of a failed job simply reuse the same
    job id, so later records win.
    """
    order: list[str] = []
    submitted: dict[str, dict] = {}
    terminal: dict[str, dict] = {}
    for rec in records:
        event, job_id = rec.get("event"), rec.get("job")
        if not isinstance(job_id, str):
            continue
        if event == "submitted":
            if job_id not in submitted:
                order.append(job_id)
            submitted[job_id] = rec
            terminal.pop(job_id, None)   # resubmission of a failed job
        elif event in TERMINAL_STATES:
            terminal[job_id] = rec
    for job_id in order:
        rec = submitted[job_id]
        job = Job(
            id=job_id,
            fingerprint=rec.get("fingerprint", ""),
            spec=rec.get("spec") or {},
            submitted_at=rec.get("time", 0.0),
            recovered=True,
        )
        end = terminal.get(job_id)
        if end is not None:
            job.state = end["event"]
            job.finished_at = end.get("time")
            job.result = end.get("result")
            job.error = end.get("error")
        yield job


# ----------------------------------------------------------------------
# result comparison
# ----------------------------------------------------------------------

# Keys whose values legitimately differ between a disturbed run (crash,
# resume, warm cache) and an undisturbed one: wall-clock timings and
# execution provenance. Everything else — counts, AVFs, intervals,
# stage lists — must be bit-identical.
_VOLATILE_RESULT_KEYS = frozenset({
    "elapsed_seconds", "resumed_passes", "pool_restarts", "degraded",
    "workers", "cache", "cached", "cached_stages",
})


def stable_result(payload: Any) -> Any:
    """The deterministic core of a job result document.

    Strips the wall-clock and execution-provenance keys so recovery
    tests and the load generator can assert that a crashed-and-resumed
    (or cache-served) job produced the same *science* as an undisturbed
    run.
    """
    if isinstance(payload, Mapping):
        return {key: stable_result(value) for key, value in payload.items()
                if key not in _VOLATILE_RESULT_KEYS}
    if isinstance(payload, (list, tuple)):
        return [stable_result(value) for value in payload]
    return payload
