"""Admission control and job execution for the AVF job server.

The scheduler owns three things:

* **Admission** — ``submit()`` validates the posted document against the
  run-spec schema, normalizes it (defaults materialized), fingerprints
  it, and either coalesces it onto an existing job (dedup) or journals
  and enqueues a new one. A bounded pending count turns into explicit
  backpressure (:class:`~repro.errors.QueueFullError` → HTTP 429).
* **Execution** — a single scheduler thread drains the queue in batches
  onto a :class:`~repro.sfi.runtime.ResilientPool`, so jobs inherit the
  campaign runtime's whole fault-tolerance story: worker-crash respawn,
  bounded jittered-backoff retries, soft per-job timeouts, and serial
  degradation. A crashing job degrades *that job*, never the server.
* **Recovery** — ``recover()`` replays the job journal on boot:
  completed jobs are re-registered so their recorded results are
  re-served byte-identically, unfinished ones re-enter the queue and
  resume from their campaign checkpoints (or fail, when their journaled
  spec no longer validates).

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

from repro.errors import QueueFullError, ServerDrainingError, SpecError
from repro.serve.dedupe import DedupIndex, ServeCounters
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


def job_initializer(payload: object) -> None:
    """Worker-process setup hook (state travels in each task instead)."""


def job_worker(task: dict) -> dict:
    """Execute one run-spec job inside a pool worker.

    *task* carries the normalized spec mapping, the job's checkpoint
    path, and the cache directory. Checkpoint/resume are injected fresh
    on every attempt: attempt 2 of a job whose attempt 1 checkpointed a
    few passes must resume from that file rather than fail the
    "checkpoint already exists" freshness check.
    """
    from repro.pipeline.emit import run_summary
    from repro.pipeline.runner import execute
    from repro.pipeline.spec import spec_from_mapping
    from repro.pipeline.store import ArtifactStore

    mapping = dict(task["spec"])
    checkpoint = task.get("checkpoint")
    # One checkpoint file per job, so only single-campaign specs get one
    # (sfi and beam sharing a file would trip its fingerprint check).
    if checkpoint and (("sfi" in mapping) ^ ("beam" in mapping)):
        campaign = dict(mapping.get("campaign") or {})
        campaign["checkpoint"] = checkpoint
        if os.path.exists(checkpoint) and os.path.getsize(checkpoint) > 0:
            campaign["resume"] = checkpoint
        else:
            campaign.pop("resume", None)
        mapping["campaign"] = campaign
    spec = spec_from_mapping(mapping)
    cache_dir = task.get("cache_dir")
    store = ArtifactStore(cache_dir) if cache_dir else None
    outcome = execute(spec, store=store)
    return run_summary(outcome)


class JobScheduler:
    """Bounded job queue plus the batch scheduler thread."""

    def __init__(
        self,
        state_dir: str | os.PathLike,
        *,
        cache_dir: str | None = None,
        workers: int = 1,
        queue_limit: int = 32,
        job_timeout: float | None = None,
        max_retries: int = 2,
        max_pool_restarts: int = 3,
        retry_backoff: float = 0.05,
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
        self.retry_backoff = retry_backoff
        self._worker = worker
        self._initializer = initializer

        self.counters = ServeCounters()
        self.index = DedupIndex(self.counters)
        self.journal = JobJournal(os.path.join(self.state_dir, "jobs.jsonl"))

        from repro.sfi.runtime import ResilientPool
        self.pool = ResilientPool(
            initializer, None, workers=workers,
            max_pool_restarts=max_pool_restarts,
        )

        self._cond = threading.Condition()
        self._queue: deque[Job] = deque()
        self._running: set[str] = set()
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
            if self.index.get(job.id) is not None:
                continue   # already admitted live (pre-start submission)
            self.index.adopt(job)
            self.counters.bump("recovered")
            if job.state in TERMINAL_STATES:
                continue
            try:
                spec_from_mapping(job.spec)
            except SpecError as exc:
                self._fail(job, str(exc))
                continue
            self.counters.bump("resumed")
            with self._cond:
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
            pending = len(self._queue) + len(self._running)
            existing = self.index.get(job_id_for(fingerprint))
            admits_new = existing is None or existing.state == FAILED
            if admits_new and pending >= self.queue_limit:
                self.counters.bump("rejected")
                raise QueueFullError(
                    f"job queue is full ({pending} pending, "
                    f"limit {self.queue_limit}); retry later",
                    retry_after=max(1.0, self.job_timeout or 1.0),
                )
            job, created = self.index.admit(fingerprint, normalized)
            if created:
                self.journal.record(
                    event="submitted", job=job.id, fingerprint=fingerprint,
                    spec=normalized, time=job.submitted_at,
                )
                self._queue.append(job)
                self._cond.notify()
            return job, created

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
        self.counters.bump("executions", len(batch))

        def on_result(index: int, result: dict) -> None:
            self._complete(batch[index], result)

        failures = self.pool.run(
            self._worker, tasks,
            max_retries=self.max_retries,
            timeout=self.job_timeout,
            on_result=on_result,
            backoff_base=self.retry_backoff,
        )
        for failure in failures:
            self._fail(batch[failure.index],
                       f"{failure.kind} after {failure.attempts} "
                       f"attempt(s): {failure.error}")

    def _complete(self, job: Job, result: dict) -> None:
        now = time.time()
        self.journal.record(event=DONE, job=job.id, result=result, time=now)
        self._free_slot(job)
        job.transition(DONE, result=result)
        self.counters.bump("completed")
        eco = result.get("eco") if isinstance(result, dict) else None
        if eco:
            self.counters.bump("eco_jobs")
            self.counters.bump("fub_hits", int(eco.get("fub_hits", 0)))
            self.counters.bump("fub_misses", int(eco.get("fub_misses", 0)))
            self.counters.bump(
                "warm_solves" if eco.get("warm") else "cold_solves"
            )
        self._cleanup_checkpoint(job)

    def _fail(self, job: Job, message: str) -> None:
        now = time.time()
        self.journal.record(event=FAILED, job=job.id, error=message, time=now)
        self._free_slot(job)
        job.transition(FAILED, error=message)
        self.counters.bump("failed")

    def _free_slot(self, job: Job) -> None:
        # Release the job's admission slot before its watchers wake, so a
        # client that sees the job finish can submit into the freed slot.
        with self._cond:
            self._running.discard(job.id)
            self._cond.notify_all()

    def _cleanup_checkpoint(self, job: Job) -> None:
        try:
            os.unlink(os.path.join(self.checkpoint_dir, f"{job.id}.jsonl"))
        except OSError:
            pass

    # -- observability -------------------------------------------------
    def pressure(self) -> tuple[int, int]:
        """(pending, limit) for readiness/backpressure reporting."""
        with self._cond:
            return len(self._queue) + len(self._running), self.queue_limit

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def stats(self) -> dict:
        with self._cond:
            queued, running = len(self._queue), len(self._running)
            draining = self._draining
        states: dict[str, int] = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for job in self.index.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "queue": {
                "queued": queued,
                "running": running,
                "limit": self.queue_limit,
                "draining": draining,
            },
            "jobs": states,
            "counters": self.counters.snapshot(),
            "pool": {
                "workers": self.pool.workers,
                "restarts": self.pool.restarts,
                "degraded": self.pool.degraded,
            },
        }
