"""Request deduplication and the serve-level observability counters.

The dedup index maps result fingerprints (spec identity minus
execution-only campaign knobs — see
:func:`repro.pipeline.spec.spec_fingerprint`) onto live
:class:`~repro.serve.jobs.Job` objects. Admission is a single critical
section, so N identical requests arriving concurrently all land on the
same job and exactly one pipeline execution happens; the acceptance
criterion "8 identical concurrent requests → 1 execution" is enforced
here and *counted* here, so the load generator and ``/stats`` can prove
it from the outside.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.serve.jobs import FAILED, Job, job_id_for


@dataclass
class ServeCounters:
    """Monotonic event counters, one instance per server process.

    ``executions`` counts pipeline dispatches, not requests: it is the
    number the concurrent-dedup acceptance test pins to 1.
    """

    requests: int = 0          # admitted POST /jobs calls
    dedup_hits: int = 0        # requests coalesced onto an existing job
    executions: int = 0        # jobs actually dispatched to the pipeline
    completed: int = 0
    failed: int = 0
    rejected: int = 0          # 429 backpressure rejections
    recovered: int = 0         # jobs replayed from the journal on boot
    resumed: int = 0           # recovered jobs that had to re-execute
    retries: int = 0           # job-level retry attempts
    # ECO mode: jobs whose spec has an ``[eco]`` section.
    eco_jobs: int = 0          # completed jobs that reported an eco block
    warm_solves: int = 0       # eco jobs solved from the baseline's warm start
    cold_solves: int = 0       # eco jobs whose warm start did not apply
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "dedup_hits": self.dedup_hits,
                "executions": self.executions,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "recovered": self.recovered,
                "resumed": self.resumed,
                "retries": self.retries,
                "eco_jobs": self.eco_jobs,
                "warm_solves": self.warm_solves,
                "cold_solves": self.cold_solves,
            }


class DedupIndex:
    """Fingerprint → job map with atomic get-or-create admission."""

    def __init__(self, counters: ServeCounters | None = None):
        self._lock = threading.Lock()
        self._by_fingerprint: dict[str, Job] = {}
        self._by_id: dict[str, Job] = {}
        self.counters = counters or ServeCounters()

    def admit(self, fingerprint: str, spec: dict) -> tuple[Job, bool]:
        """Return ``(job, created)`` for *fingerprint*, atomically.

        The second and every later caller with the same fingerprint gets
        the first caller's job (``created=False``) — including callers
        arriving after the job finished, which are served the stored
        result. A *failed* job is the one exception: resubmitting it
        re-queues the same job for a fresh execution.
        """
        with self._lock:
            job = self._by_fingerprint.get(fingerprint)
            if job is not None:
                self.counters.bump("requests")
                if job.state == FAILED:
                    job.reset_for_retry()
                    self.counters.bump("retries")
                    return job, True
                self.counters.bump("dedup_hits")
                return job, False
            job = Job(id=job_id_for(fingerprint), fingerprint=fingerprint,
                      spec=spec)
            self._by_fingerprint[fingerprint] = job
            self._by_id[job.id] = job
            self.counters.bump("requests")
            return job, True

    def adopt(self, job: Job) -> None:
        """Register a journal-replayed job without counting a request."""
        with self._lock:
            self._by_fingerprint[job.fingerprint] = job
            self._by_id[job.id] = job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._by_id.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs, in admission order."""
        with self._lock:
            return list(self._by_id.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)
