"""Admission control and job execution for the AVF job server.

The scheduler owns three things:

* **Admission** — ``submit()`` validates the posted document against the
  run-spec schema, normalizes it (defaults materialized), fingerprints
  it, and either coalesces it onto an existing job (dedup) or journals
  and enqueues a new one. A bounded pending count turns into explicit
  backpressure (:class:`~repro.errors.QueueFullError` → HTTP 429).
  Identical requests map to one job id, so the job table keyed by id
  is the dedup index: N identical concurrent requests land on one job
  and run once.
* **Execution** — a single scheduler thread drains the queue in batches
  onto a :class:`~repro.sfi.runtime.ResilientPool`, so jobs inherit the
  campaign runtime's whole fault-tolerance story: worker-crash respawn,
  bounded jittered-backoff retries, soft per-job timeouts, and serial
  degradation. A crashing job degrades *that job*, never the server.
* **Recovery** — ``recover()`` replays the job journal on boot:
  completed jobs are re-registered so their recorded results are
  re-served byte-identically, unfinished ones re-enter the queue and
  resume from their campaign checkpoints (or fail, when their journaled
  spec no longer validates; a checkpoint that cannot be resumed is
  discarded and its campaign reruns).

``job_worker``/``job_initializer`` are module level so they pickle into
pool workers. The worker injects the job's checkpoint path into the
spec's ``[campaign]`` section *per attempt* — a retry after a partial
first attempt must resume from the checkpoint that attempt left behind,
not trip over it.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import QueueFullError, ServerDrainingError, SpecError
from repro.serve.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobJournal,
    job_id_for,
    load_journal,
    replay_journal,
)

if TYPE_CHECKING:
    from repro.pipeline.store import ArtifactStore

# The /stats counters. Monotonic; changed only under JobScheduler._cond.
COUNTERS = (
    "requests",        # admitted POST /jobs calls
    "dedup_hits",      # requests coalesced onto an existing job
    "executions",      # jobs dispatched to the pipeline
    "completed",
    "failed",
    "rejected",        # 429 backpressure rejections
    "recovered",       # jobs replayed from the journal on boot
    "resumed",         # recovered jobs that had to re-execute
    "retries",         # resubmissions of a failed job
)


# One artifact store per cache directory for the life of the process, so
# every warm job gets the resident artifacts of the jobs before it: the
# same SolvePlan object, with no unpickling and its union memo warm.
# Sharing a plan relies on one job at a time per process: jobs run on the
# one scheduler thread (a one-job batch runs there even with a pool), or
# one at a time in each pool worker, which builds its own map.
_STORES: dict[str, ArtifactStore] = {}


def job_initializer(payload: object) -> None:
    """Worker-process setup hook (state travels in each task instead)."""


def job_worker(task: dict) -> dict:
    """Execute one run-spec job inside a pool worker.

    *task* carries the normalized spec mapping, the job's checkpoint
    path, and the cache directory, whose store the process keeps
    (:data:`_STORES`). Checkpoint/resume are injected fresh on every
    attempt: attempt 2 of a job whose attempt 1 checkpointed a few
    passes must resume from that file rather than fail the "checkpoint
    already exists" freshness check. A checkpoint the campaign refuses
    to resume (one an older campaign recipe wrote, say) only held saved
    work: it is deleted and the job runs from scratch.
    """
    from repro.errors import CheckpointError
    from repro.pipeline.emit import run_summary
    from repro.pipeline.runner import execute
    from repro.pipeline.spec import spec_from_mapping
    from repro.pipeline.store import ArtifactStore

    mapping = dict(task["spec"])
    checkpoint = task.get("checkpoint")
    resume = False
    # One checkpoint file per job, so only single-campaign specs get one
    # (sfi and beam sharing a file would trip its fingerprint check).
    if checkpoint and (("sfi" in mapping) ^ ("beam" in mapping)):
        campaign = dict(mapping.get("campaign") or {})
        campaign["checkpoint"] = checkpoint
        campaign.pop("resume", None)
        mapping["campaign"] = campaign
        resume = os.path.exists(checkpoint) and os.path.getsize(checkpoint) > 0
    cache_dir = task.get("cache_dir")
    store = None
    if cache_dir:
        store = _STORES.get(cache_dir)
        if store is None:
            store = _STORES[cache_dir] = ArtifactStore(cache_dir)
    if resume:
        resuming = {**mapping, "campaign": {**mapping["campaign"], "resume": checkpoint}}
        try:
            return run_summary(execute(spec_from_mapping(resuming), store=store))
        except CheckpointError:
            os.unlink(checkpoint)
    return run_summary(execute(spec_from_mapping(mapping), store=store))


class JobScheduler:
    """Bounded job queue plus the batch scheduler thread.

    One condition, ``_cond``, guards the queue, the running set, the job
    table (keyed by job id, as the journal and the HTTP routes key
    jobs) and the counters. Where a job's own ``cond`` is taken too, it
    is taken second.
    """

    def __init__(
        self,
        state_dir: str | os.PathLike,
        *,
        cache_dir: str | None = None,
        workers: int = 1,
        queue_limit: int = 32,
        job_timeout: float | None = None,
        max_retries: int = 2,
        worker=job_worker,
        initializer=job_initializer,
    ):
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.checkpoint_dir = os.path.join(self.state_dir, "checkpoints")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.cache_dir = cache_dir
        self.queue_limit = max(1, int(queue_limit))
        self.job_timeout = job_timeout
        self.max_retries = max(1, int(max_retries))
        self._worker = worker
        self._initializer = initializer

        self.journal = JobJournal(os.path.join(self.state_dir, "jobs.jsonl"))

        from repro.sfi.runtime import ResilientPool
        self.pool = ResilientPool(initializer, None, workers=workers)

        self._cond = threading.Condition()
        self._queue: deque[Job] = deque()
        self._running: set[str] = set()
        self._jobs: dict[str, Job] = {}
        self._counters = dict.fromkeys(COUNTERS, 0)
        self._draining = False
        self._stopped = False
        self._thread = threading.Thread(
            target=self._loop, name="serve-scheduler", daemon=True
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self.recover()
        self._thread.start()

    def recover(self) -> None:
        """Replay the job journal: re-serve finished, re-queue the rest.

        An unfinished job is re-validated first: a spec journaled under
        an older schema (a key this version no longer accepts) fails
        with the :class:`~repro.errors.SpecError` naming the key instead
        of being re-queued.
        """
        from repro.pipeline.spec import spec_from_mapping

        for job in replay_journal(load_journal(self.journal.path)):
            with self._cond:
                if job.id in self._jobs:
                    continue   # already admitted live (pre-start submission)
                self._jobs[job.id] = job
                self._counters["recovered"] += 1
            if job.state in TERMINAL_STATES:
                continue
            try:
                spec_from_mapping(job.spec)
            except SpecError as exc:
                self._fail(job, str(exc))
                continue
            with self._cond:
                self._counters["resumed"] += 1
                self._queue.append(job)
                self._cond.notify()

    def drain(self, grace: float = 30.0) -> bool:
        """Stop admitting, finish in-flight work, shut the pool down.

        Returns True when everything pending completed within *grace*
        seconds; False means the scheduler was stopped with work still
        queued (it stays durable in the journal for the next boot).
        """
        deadline = time.monotonic() + max(0.0, grace)
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while self._queue or self._running:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.5))
            clean = not self._queue and not self._running
            self._stopped = True
            self._cond.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=max(1.0, grace))
        self.pool.close()
        self.journal.close()
        return clean

    # -- admission -----------------------------------------------------
    def submit(self, document: dict) -> tuple[Job, bool]:
        """Validate, fingerprint, dedup, journal, and enqueue *document*.

        Returns ``(job, created)``; ``created=False`` is a dedup hit —
        the caller shares an existing (possibly already finished) job.
        Raises :class:`~repro.errors.SpecError` on an invalid document,
        :class:`~repro.errors.QueueFullError` over the pending bound and
        :class:`~repro.errors.ServerDrainingError` during shutdown.
        """
        from repro.pipeline.spec import spec_fingerprint, spec_from_mapping

        spec = spec_from_mapping(document)
        normalized = spec.to_mapping()
        fingerprint = spec_fingerprint(spec)

        with self._cond:
            if self._draining:
                raise ServerDrainingError(
                    "server is draining and no longer accepts jobs"
                )
            job = self._jobs.get(job_id_for(fingerprint))
            if job is not None and job.state != FAILED:
                # Every later caller shares the first caller's job, even
                # once it finished: it is served the stored result.
                self._counters["requests"] += 1
                self._counters["dedup_hits"] += 1
                return job, False
            pending = len(self._queue) + len(self._running)
            if pending >= self.queue_limit:
                self._counters["rejected"] += 1
                raise QueueFullError(
                    f"job queue is full ({pending} pending, "
                    f"limit {self.queue_limit}); retry later",
                    retry_after=max(1.0, self.job_timeout or 1.0),
                )
            self._counters["requests"] += 1
            if job is None:
                job = Job(id=job_id_for(fingerprint),
                          fingerprint=fingerprint, spec=normalized)
                self._jobs[job.id] = job
            else:   # resubmitting a failed job re-queues it
                job.reset_for_retry()
                self._counters["retries"] += 1
            self.journal.record(
                event="submitted", job=job.id, fingerprint=fingerprint,
                spec=normalized, time=job.submitted_at,
            )
            self._queue.append(job)
            self._cond.notify()
            return job, True

    # -- execution -----------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait(0.5)
                if self._stopped and not self._queue:
                    return
                batch = [job for job in self._queue
                         if job.state not in TERMINAL_STATES]
                self._queue.clear()
                for job in batch:
                    self._running.add(job.id)
                self._counters["executions"] += len(batch)
            if batch:
                try:
                    self._run_batch(batch)
                finally:
                    with self._cond:
                        for job in batch:
                            self._running.discard(job.id)
                        self._cond.notify_all()

    def _run_batch(self, batch: list[Job]) -> None:
        tasks = []
        for job in batch:
            job.transition(RUNNING)
            tasks.append({
                "spec": job.spec,
                "checkpoint": os.path.join(
                    self.checkpoint_dir, f"{job.id}.jsonl"),
                "cache_dir": self.cache_dir,
            })

        def on_result(index: int, result: dict) -> None:
            self._complete(batch[index], result)

        failures = self.pool.run(
            self._worker, tasks,
            max_retries=self.max_retries,
            timeout=self.job_timeout,
            on_result=on_result,
        )
        for failure in failures:
            self._fail(batch[failure.index],
                       f"{failure.kind} after {failure.attempts} "
                       f"attempt(s): {failure.error}")

    def _complete(self, job: Job, result: dict) -> None:
        self._finish(job, DONE, "completed", result=result)
        self._cleanup_checkpoint(job)

    def _fail(self, job: Job, message: str) -> None:
        self._finish(job, FAILED, "failed", error=message)

    def _finish(self, job: Job, state: str, counter: str, **outcome) -> None:
        self.journal.record(event=state, job=job.id, time=time.time(),
                            **outcome)
        # Count the job and free its admission slot before its watchers
        # wake, so a client that sees the job finish reads it counted in
        # /stats and can submit into the freed slot.
        with self._cond:
            self._counters[counter] += 1
            self._running.discard(job.id)
            self._cond.notify_all()
        job.transition(state, **outcome)

    def _cleanup_checkpoint(self, job: Job) -> None:
        try:
            os.unlink(os.path.join(self.checkpoint_dir, f"{job.id}.jsonl"))
        except OSError:
            pass

    # -- lookup and observability --------------------------------------
    def job(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs, in admission order."""
        with self._cond:
            return list(self._jobs.values())

    def pressure(self) -> tuple[int, int]:
        """(pending, limit) for readiness/backpressure reporting."""
        with self._cond:
            return len(self._queue) + len(self._running), self.queue_limit

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def stats(self) -> dict:
        states: dict[str, int] = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        with self._cond:
            queue = {
                "queued": len(self._queue),
                "running": len(self._running),
                "limit": self.queue_limit,
                "draining": self._draining,
            }
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            counters = dict(self._counters)
        return {
            "queue": queue,
            "jobs": states,
            "counters": counters,
            "pool": {
                "workers": self.pool.workers,
                "restarts": self.pool.restarts,
                "degraded": self.pool.degraded,
            },
        }
