"""Fault-tolerant campaign runtime: checkpoint/resume, retry, timeouts.

SFI and beam campaigns run thousands of independent passes; at that scale
the campaign infrastructure itself becomes the dominant failure mode —
worker processes die, single passes hang, and a multi-hour run that
aborts on the first straggler loses everything it already computed. This
module hardens the process-pool fan-out that the lane-campaign runner
(:mod:`repro.sfi.lanes`) and the job server run on:

* **Durable checkpointing** — every completed pass is appended to a
  versioned JSONL checkpoint file and flushed immediately, so an
  interrupted campaign resumes with ``resume=<path>`` and reproduces
  bit-identical final results (passes are pure functions of their plan;
  replaying the missing ones in index order cannot differ from an
  uninterrupted run). The job server's journal is the same kind of
  log (:mod:`repro.jsonlog`).
* **Per-pass retry** — a pass that raises is retried up to a bounded
  attempt budget; a persistently-failing pass becomes a structured
  :class:`~repro.sfi.results.PassFailure` record instead of aborting the
  campaign.
* **Worker-loss recovery** — a :class:`BrokenProcessPool` respawns the
  pool and requeues only the in-flight passes (completed work is never
  redone); after the restart budget is exhausted the runtime degrades
  gracefully to serial in-process execution with a
  :class:`DegradedExecutionWarning` instead of raising.
* **Soft pass timeouts** — a straggler past ``pass_timeout`` seconds is
  recorded as a ``timeout`` failure and its worker slot is written off;
  when every slot is wedged the pool is recycled (hung workers are
  terminated) so the campaign keeps making progress.

Determinism contract: pass results are folded in submission-index order
no matter which worker finished them when, so for a healthy run the
output is bit-identical at any worker count, with any checkpoint/resume
split, and across pool restarts.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import CheckpointError
from repro.jsonlog import LogFormat, LogWriter, read_log
from repro.sfi.results import CRASH, TIMEOUT, PassFailure

_ITEM = TypeVar("_ITEM")
_RESULT = TypeVar("_RESULT")

# Ceiling for absurd worker requests: beyond a few processes per CPU the
# pool only adds memory pressure and fork latency, never throughput.
_WORKER_CAP = max(32, 4 * (os.cpu_count() or 1))


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request (None/0/negative -> serial).

    Huge requests are clamped to a few processes per CPU — an oversized
    pool cannot run more passes at once than there are cores anyway.
    """
    if workers is None or workers < 1:
        return 1
    return min(workers, _WORKER_CAP)


class DegradedExecutionWarning(UserWarning):
    """The runtime fell back to serial in-process execution."""


# Base of the retry backoff (seconds) and its ceiling. Every pool run
# (campaign passes and server jobs) waits this schedule between attempts.
RETRY_DELAY = 0.05
RETRY_DELAY_CAP = 2.0


def backoff_delay(index: int, attempt: int, *, base: float) -> float:
    """Deterministic bounded jittered exponential retry backoff.

    The delay inserted *before* retry *attempt* of pass *index* (attempt
    1 is the first try and never waits): ``base`` seconds doubling per
    attempt, capped at :data:`RETRY_DELAY_CAP`, scaled by a jitter
    factor in [0.5, 1.0) derived by hashing ``(index, attempt)``. The
    schedule is a pure function of its inputs — tests see identical
    delays — while different passes de-phase, so a sick pool is not
    hammered by the whole campaign retrying in lockstep.
    """
    if base <= 0.0 or attempt <= 1:
        return 0.0
    raw = min(RETRY_DELAY_CAP, base * (2.0 ** (attempt - 2)))
    digest = hashlib.sha256(f"{index}:{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return raw * (0.5 + 0.5 * unit)


@dataclass
class RuntimeOptions:
    """Fault-tolerance knobs for a campaign run.

    ``max_retries`` is the *total* attempt budget per pass (1 = no
    retry). ``pass_timeout`` is a soft per-pass deadline in seconds,
    enforced only when a process pool is active (a serial in-process
    pass cannot be preempted — see docs/ROBUSTNESS.md). ``checkpoint``
    appends completed passes to a JSONL file; ``resume`` loads one
    first and skips the passes it already holds. ``max_pool_restarts``
    bounds how many times a broken pool is respawned before the runtime
    degrades to serial execution. Each retry attempt first waits the
    fixed backoff schedule (:func:`backoff_delay` from
    :data:`RETRY_DELAY`).
    """

    max_retries: int = 3
    pass_timeout: float | None = None
    checkpoint: str | None = None
    resume: str | None = None
    max_pool_restarts: int = 3


@dataclass
class RunReport:
    """Everything :func:`run_passes` did, pass by pass.

    ``results[i]`` is pass *i*'s result, or ``None`` when that
    pass failed permanently (its :class:`PassFailure` is in
    ``failures``).
    """

    results: list[Any]
    failures: list[PassFailure] = field(default_factory=list)
    pool_restarts: int = 0
    degraded: bool = False
    resumed: int = 0
    executed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def campaign_fingerprint(*parts: object) -> str:
    """Stable digest identifying one campaign's full configuration.

    Stored in the checkpoint header so a checkpoint can never be
    resumed against a different program/plan/batching combination.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# checkpoint file format (a versioned JSONL log; see docs/ROBUSTNESS.md)
# ----------------------------------------------------------------------

CHECKPOINT = LogFormat("repro-campaign-checkpoint", 1, "checkpoint",
                       "a campaign checkpoint", CheckpointError)


def load_checkpoint(path: str, fingerprint: str, passes: int) -> dict[int, Any]:
    """Read a checkpoint back as ``{pass index: result}``.

    Validates the versioned header against the resuming campaign; a
    record needs an integer ``pass`` in range and a ``result``. Any
    other flaw the reader does not tolerate raises
    :class:`CheckpointError`.
    """
    log = read_log(path, CHECKPOINT)
    if log is None:
        state = "is empty" if os.path.exists(path) else "does not exist"
        raise CheckpointError(f"checkpoint {path!r} {state}")
    header, records = log
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} belongs to a different campaign "
            f"(fingerprint {header.get('fingerprint')!r}, expected {fingerprint!r})"
        )
    if header.get("passes") != passes:
        raise CheckpointError(
            f"checkpoint {path!r} records a {header.get('passes')}-pass campaign, "
            f"not {passes} passes"
        )
    results: dict[int, Any] = {}
    for lineno, rec in records:
        index = rec.get("pass")
        if type(index) is not int or not 0 <= index < passes or "result" not in rec:
            raise CheckpointError(
                f"checkpoint {path!r}: corrupt line {lineno} (a record needs "
                f"an integer pass in [0, {passes}) and a result)"
            )
        results[index] = rec["result"]
    return results


# ----------------------------------------------------------------------
# the self-healing pool
# ----------------------------------------------------------------------

class ResilientPool:
    """A process pool that survives worker loss and wedged workers.

    Wraps :class:`ProcessPoolExecutor` with respawn-on-break, bounded
    per-task retry, soft task timeouts, and a final serial in-process
    fallback. One instance may serve several :meth:`run` calls (the job
    server reuses it across job batches); worker state is rebuilt by
    re-running *initializer* after every respawn, so workers must treat
    it as their only setup channel.
    """

    def __init__(
        self,
        initializer: Callable[[Any], None],
        payload: Any,
        *,
        workers: int | None = 1,
        max_pool_restarts: int = 3,
    ):
        self._initializer = initializer
        self._payload = payload
        self.workers = resolve_workers(workers)
        self.max_pool_restarts = max(0, max_pool_restarts)
        self.restarts = 0          # every pool respawn (broken or wedged)
        self.degraded = False      # fell back to serial due to failures
        self._serial = self.workers <= 1
        self._serial_ready = False
        self._pool: ProcessPoolExecutor | None = None
        self._abandoned = 0        # slots written off to hung workers
        self._broken = 0           # respawns caused by worker death

    # -- pool lifecycle ------------------------------------------------
    def _pool_or_none(self) -> ProcessPoolExecutor | None:
        if self._serial:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=self._initializer,
                    initargs=(self._payload,),
                )
            except (OSError, ValueError) as exc:
                self._degrade(f"could not start worker pool: {exc}")
                return None
        return self._pool

    def _teardown(self, *, kill: bool) -> None:
        pool, self._pool = self._pool, None
        self._abandoned = 0
        if pool is None:
            return
        if kill:
            # ProcessPoolExecutor has no kill API; terminating the worker
            # processes directly is the only way to reclaim a hung pool
            # (shutdown() would join them, i.e. hang right along).
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _degrade(self, why: str) -> None:
        self._serial = True
        self.degraded = True
        self._teardown(kill=True)
        warnings.warn(
            f"worker pool degrading to serial in-process execution ({why})",
            DegradedExecutionWarning,
            stacklevel=4,
        )

    def _recycle(self, why: str, *, broken: bool) -> None:
        """Respawn the pool; degrade to serial past the restart budget."""
        self.restarts += 1
        self._teardown(kill=True)
        if broken:
            self._broken += 1
            if self._broken > self.max_pool_restarts:
                self._degrade(
                    f"{why}; pool already respawned {self._broken - 1} time(s)"
                )

    def close(self) -> None:
        """Release the pool, terminating any workers still wedged."""
        self._teardown(kill=self._abandoned > 0)

    # -- execution -----------------------------------------------------
    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        indices: Iterable[int] | None = None,
        max_retries: int = 3,
        timeout: float | None = None,
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list[PassFailure]:
        """Run ``fn(tasks[i])`` for every index, surviving failures.

        *on_result(index, result)* fires as each task completes (the
        checkpoint hook). Permanent failures come back as
        :class:`PassFailure` records. Each retry attempt waits the
        bounded jittered exponential delay of :func:`backoff_delay`
        instead of re-queueing immediately (requeues caused by a broken
        pool or a cancelled not-yet-started task keep their attempt
        number and never wait — the pool respawn itself is the pause).
        """
        idxs = [i for i in (indices if indices is not None else range(len(tasks)))]
        max_retries = max(1, int(max_retries))
        failures: list[PassFailure] = []
        finished: set[int] = set()
        # Queue entries are (index, attempt, ready_at): a retry under
        # backoff is parked until its monotonic ready time.
        queue: deque[tuple[int, int, float]] = deque((i, 1, 0.0) for i in idxs)
        if not queue:
            return failures

        def retry_ready(index: int, attempt: int) -> float:
            return time.monotonic() + backoff_delay(index, attempt, base=RETRY_DELAY)

        def fail(index: int, attempts: int, kind: str, message: str) -> None:
            failures.append(
                PassFailure(index=index, kind=kind, error=message, attempts=attempts)
            )
            finished.add(index)

        def succeed(index: int, result: Any) -> None:
            finished.add(index)
            if on_result is not None:
                on_result(index, result)

        # Serial is also the single-task fast path: no pool, no pickling.
        if len(idxs) <= 1:
            self._run_serial(fn, tasks, queue, max_retries, finished, fail,
                             succeed, retry_ready)
            return failures

        pending: dict[Future, tuple[int, int, float]] = {}
        while queue or pending:
            pool = self._pool_or_none()
            if pool is None:
                for _fut, (i, att, _t0) in pending.items():
                    if i not in finished:
                        queue.append((i, att, 0.0))
                pending.clear()
                self._run_serial(fn, tasks, queue, max_retries, finished,
                                 fail, succeed, retry_ready)
                break

            # Keep at most one task per live slot in flight so that
            # submit time ~= start time (the soft-timeout clock). Entries
            # still backing off rotate to the back of the queue; the
            # earliest ready time bounds how long the wait below blocks.
            live_slots = self.workers - self._abandoned
            now = time.monotonic()
            backing_off: float | None = None
            for _ in range(len(queue)):
                if len(pending) >= live_slots:
                    break
                i, att, ready = queue.popleft()
                if i in finished:
                    continue
                if ready > now:
                    queue.append((i, att, ready))
                    backing_off = (ready if backing_off is None
                                   else min(backing_off, ready))
                    continue
                pending[pool.submit(fn, tasks[i])] = (i, att, time.monotonic())

            if not pending:
                if backing_off is not None:
                    # Everything left is parked on a retry delay.
                    time.sleep(max(0.0, backing_off - time.monotonic()))
                    continue
                if self._abandoned:
                    # Only wedged workers remain; recycle so queued work
                    # (if any) gets fresh slots, else we are done.
                    self._recycle("all workers wedged past the pass timeout",
                                  broken=False)
                    if not queue:
                        break
                    continue
                break  # queue drained into `finished` duplicates

            tick = self._tick(pending, timeout)
            if backing_off is not None:
                until_ready = max(0.01, backing_off - time.monotonic())
                tick = until_ready if tick is None else min(tick, until_ready)
            done_set, _ = wait(
                list(pending), timeout=tick,
                return_when=FIRST_COMPLETED,
            )
            broke = False
            for fut in done_set:
                i, att, _t0 = pending.pop(fut)
                if i in finished:
                    continue
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    broke = True
                    queue.append((i, att, 0.0))
                except Exception as exc:
                    if att < max_retries:
                        queue.append((i, att + 1, retry_ready(i, att + 1)))
                    else:
                        fail(i, att, CRASH, f"{type(exc).__name__}: {exc}")
                else:
                    succeed(i, result)

            if broke:
                # The whole pool is poisoned: every in-flight future will
                # raise BrokenProcessPool. Requeue them at the *same*
                # attempt (the culprit is unidentifiable, so no pass
                # burns retry budget on a neighbour's crash) and respawn;
                # the restart budget bounds a persistent crasher, after
                # which serial execution resolves it deterministically.
                for _fut, (i, att, _t0) in pending.items():
                    if i not in finished:
                        queue.append((i, att, 0.0))
                pending.clear()
                self._recycle("a worker process died unexpectedly", broken=True)
                continue

            if timeout is not None:
                now = time.monotonic()
                for fut in [f for f, (_i, _a, t0) in pending.items()
                            if now - t0 >= timeout]:
                    i, att, _t0 = pending.pop(fut)
                    if fut.cancel():
                        # Never started — queued behind a slow pass, not a
                        # straggler itself. Requeue without burning budget.
                        queue.append((i, att, 0.0))
                    else:
                        self._abandoned += 1
                        fail(i, att, TIMEOUT,
                             f"still running after the {timeout:g}s soft timeout")
                if self._abandoned >= self.workers:
                    for _fut, (i, att, _t0) in pending.items():
                        if i not in finished:
                            queue.append((i, att, 0.0))
                    pending.clear()
                    self._recycle("every worker wedged past the pass timeout",
                                  broken=False)

        if self._abandoned:
            self._teardown(kill=True)
        return failures

    @staticmethod
    def _tick(pending: dict, timeout: float | None) -> float | None:
        """How long :func:`wait` may block before a timeout sweep is due."""
        if timeout is None:
            return None
        now = time.monotonic()
        deadline = min(t0 + timeout for (_i, _a, t0) in pending.values())
        return max(0.01, deadline - now)

    def _run_serial(self, fn, tasks, queue, max_retries, finished, fail,
                    succeed, retry_ready=None):
        if not queue:
            return
        if not self._serial_ready:
            self._initializer(self._payload)
            self._serial_ready = True
        while queue:
            i, att, ready = queue.popleft()
            if i in finished:
                continue
            while True:
                delay = ready - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                try:
                    result = fn(tasks[i])
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    if att < max_retries:
                        att += 1
                        if retry_ready is not None:
                            ready = retry_ready(i, att)
                        continue
                    fail(i, att, CRASH, f"{type(exc).__name__}: {exc}")
                    break
                else:
                    succeed(i, result)
                    break


# ----------------------------------------------------------------------
# the campaign entry point
# ----------------------------------------------------------------------

def run_passes(
    worker: Callable[[_ITEM], _RESULT],
    initializer: Callable[[Any], None],
    payload: Any,
    items: Iterable[_ITEM],
    *,
    workers: int | None = 1,
    options: RuntimeOptions | None = None,
    fingerprint: str = "",
) -> RunReport:
    """Execute every pass with checkpointing, retry, and timeouts.

    *initializer(payload)* builds per-process state once per worker (and
    once in this process on the serial path); *worker* and *initializer*
    must be module-level so pools pickle them. The returned
    :class:`RunReport` has ``results`` ordered by pass index (``None``
    for permanent failures). A pass result goes into the checkpoint file
    as it is, so it must be JSON-serializable.
    """
    opts = options or RuntimeOptions()
    work = list(items)
    n = len(work)
    report = RunReport(results=[None] * n)
    pending_idx = list(range(n))

    if opts.resume:
        cached = load_checkpoint(opts.resume, fingerprint, n)
        for index, result in cached.items():
            report.results[index] = result
        report.resumed = len(cached)
        pending_idx = [i for i in range(n) if i not in cached]

    writer: LogWriter | None = None
    if opts.checkpoint:
        appending = bool(opts.resume) and (
            os.path.abspath(opts.resume) == os.path.abspath(opts.checkpoint)
        )
        if (not appending and os.path.exists(opts.checkpoint)
                and os.path.getsize(opts.checkpoint) > 0):
            raise CheckpointError(
                f"checkpoint {opts.checkpoint!r} already exists; resume from it "
                "(resume=...) or remove it before starting a fresh campaign"
            )
        writer = LogWriter(opts.checkpoint, CHECKPOINT,
                           fingerprint=fingerprint, passes=n)

    def on_result(index: int, result: Any) -> None:
        report.results[index] = result
        report.executed += 1
        if writer is not None:
            writer.append({"pass": index, "result": result})

    pool = ResilientPool(
        initializer, payload,
        workers=min(resolve_workers(workers), max(1, len(pending_idx))),
        max_pool_restarts=opts.max_pool_restarts,
    )
    try:
        report.failures = pool.run(
            worker, work,
            indices=pending_idx,
            max_retries=opts.max_retries,
            timeout=opts.pass_timeout,
            on_result=on_result,
        )
    finally:
        # Flush-and-release even on KeyboardInterrupt: whatever completed
        # before the interrupt is already durable in the checkpoint.
        pool.close()
        if writer is not None:
            writer.close()
    report.pool_restarts = pool.restarts
    report.degraded = pool.degraded
    return report
