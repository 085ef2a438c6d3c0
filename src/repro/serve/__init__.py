"""AVF-as-a-service: a fault-tolerant async job server over the pipeline.

The paper's pitch is turnaround — analytical AVF in minutes instead of
months of RTL injection — and this package serves that speed to many
concurrent users. Clients POST declarative run-specs (the same TOML/JSON
documents ``repro-sart run`` executes) to a long-running HTTP/JSON
server; the server validates and admits them through a bounded queue
with explicit backpressure, deduplicates identical requests so N users
asking for the same analysis share one execution, schedules jobs on the
fault-tolerant campaign runtime (:mod:`repro.sfi.runtime`), streams
progress over SSE, and serves results straight out of its durable job
journal and the content-addressed artifact store.

Modules
-------

``jobs``
    The job model and the append-only JSONL job journal that makes
    submissions and results durable across server crashes; like the
    campaign checkpoints it is a :mod:`repro.jsonlog` log.
``scheduler``
    Admission control with dedup, the job table and the ``/stats``
    counters (all under one lock), the batch scheduler thread, and the
    pipeline worker that executes one run-spec per job on a
    :class:`~repro.sfi.runtime.ResilientPool`.
``server``
    The stdlib ``ThreadingHTTPServer`` front end: job submission,
    status, SSE progress with heartbeats, health/readiness, stats, and
    graceful drain.
``loadgen``
    A concurrent load generator emitting ``BENCH_serve.json``
    (requests/s, dedup and cache hit rates, p50/p95 latency).

Everything runs on the standard library — no new runtime dependencies.
"""

from repro.serve.jobs import (  # noqa: F401
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobJournal,
    load_journal,
    stable_result,
)
from repro.serve.scheduler import JobScheduler  # noqa: F401
from repro.serve.server import ServeApp  # noqa: F401

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "TERMINAL_STATES",
    "Job",
    "JobJournal",
    "JobScheduler",
    "ServeApp",
    "load_journal",
    "stable_result",
]
