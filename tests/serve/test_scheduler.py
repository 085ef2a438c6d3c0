"""Scheduler tests: dedup under concurrency, backpressure, chaos.

Workers that must survive pickling into pool processes (the chaos test
runs ``workers=2``) are module level; everything else runs in-process
(``workers=1`` uses the runtime's serial path), so closures are fine.
"""

import os
import sys
import threading

import pytest

from repro.errors import QueueFullError, ServerDrainingError, SpecError
from repro.serve.jobs import DONE, FAILED, Job
from repro.serve.scheduler import JobScheduler

SPEC = {"design": "tinycore:fib", "sart": {"monolithic": True}}
OTHER_SPEC = {"design": "tinycore:fib", "sart": {"monolithic": False}}

_GATE = threading.Event()


def _ok_worker(task):
    return {"ok": True, "design": task["spec"]["design"]}


def _gated_worker(task):
    _GATE.wait(timeout=30)
    return {"ok": True}


def _chaos_worker(task):
    """Crash the worker process once, then fail normally (forever)."""
    scratch = task["cache_dir"]
    if task["spec"]["sart"]["loop_pavf"] == 0.666:
        marker = os.path.join(scratch, "crashed-once")
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(11)        # simulate a segfaulting worker
        raise RuntimeError("chaos: permanently broken")
    return {"ok": True}


def _scheduler(tmp_path, **kwargs):
    kwargs.setdefault("worker", _ok_worker)
    return JobScheduler(str(tmp_path / "state"), **kwargs)


def test_concurrent_identical_requests_share_one_execution(tmp_path):
    sched = _scheduler(tmp_path)
    sched.start()
    try:
        barrier = threading.Barrier(8)
        outcomes = []
        lock = threading.Lock()

        def submit():
            barrier.wait()
            job, created = sched.submit(dict(SPEC))
            with lock:
                outcomes.append((job, created))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)

        jobs = {job.id for job, _ in outcomes}
        assert len(outcomes) == 8 and len(jobs) == 1
        assert sum(created for _, created in outcomes) == 1
        job = outcomes[0][0]
        assert job.await_terminal(timeout=30) and job.state == DONE

        counters = sched.stats()["counters"]
        assert counters["requests"] == 8
        assert counters["dedup_hits"] == 7
        assert counters["executions"] == 1
        assert counters["completed"] == 1
    finally:
        sched.drain(grace=5)


def test_counters_hold_under_concurrent_admission(tmp_path):
    # More clients than cores and a short switch interval: a counter
    # bumped outside the scheduler's lock would lose updates here.
    sched = _scheduler(tmp_path, queue_limit=1000)
    sched.start()
    specs = [{"design": "tinycore:fib", "sart": {"loop_pavf": k / 10}}
             for k in range(4)]
    barrier = threading.Barrier(16)
    jobs = []

    def client(k):
        barrier.wait(timeout=10)
        for rep in range(25):
            jobs.append(sched.submit(dict(specs[(k + rep) % 4]))[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        unique = {job.id: job for job in jobs}
        assert len(jobs) == 400 and len(unique) == 4
        assert all(job.await_terminal(timeout=30) for job in unique.values())
        counters = sched.stats()["counters"]
        assert counters["requests"] == 400
        assert counters["dedup_hits"] == 396
        assert counters["executions"] == counters["completed"] == 4
        assert sched.stats()["jobs"][DONE] == 4
    finally:
        sched.drain(grace=5)


def _failing_worker(task):
    raise RuntimeError("boom")


@pytest.mark.parametrize("worker, state, counter", [
    (_ok_worker, DONE, "completed"),
    (_failing_worker, FAILED, "failed"),
])
def test_job_is_counted_before_its_watchers_wake(tmp_path, monkeypatch,
                                                 worker, state, counter):
    # Read the counter at the moment the job turns terminal, before
    # any watcher can wake: a client that sees the job finish must find
    # it counted in /stats.
    sched = _scheduler(tmp_path, worker=worker, max_retries=1)
    seen = []
    transition = Job.transition

    def spy(job, new_state, **outcome):
        if new_state == state:
            seen.append(sched.stats()["counters"][counter])
        transition(job, new_state, **outcome)

    monkeypatch.setattr(Job, "transition", spy)
    sched.start()
    try:
        job, _ = sched.submit(dict(SPEC))
        assert job.await_terminal(timeout=30) and job.state == state
        assert seen == [1]
    finally:
        sched.drain(grace=5)


def test_dedup_serves_completed_job_without_reexecution(tmp_path):
    sched = _scheduler(tmp_path)
    sched.start()
    try:
        job, created = sched.submit(dict(SPEC))
        assert created and job.await_terminal(timeout=30)
        again, created2 = sched.submit(dict(SPEC))
        assert again is job and not created2
        assert sched.stats()["counters"]["executions"] == 1
    finally:
        sched.drain(grace=5)


def test_dedup_ignores_execution_only_campaign_knobs(tmp_path):
    sched = _scheduler(tmp_path)
    sched.start()
    try:
        spec_a = {"design": "tinycore:fib", "sfi": {"injections": 4},
                  "campaign": {"workers": 1, "max_retries": 3}}
        spec_b = {"design": "tinycore:fib", "sfi": {"injections": 4},
                  "campaign": {"workers": 4, "max_retries": 1,
                               "pass_timeout": 9.0}}
        job_a, _ = sched.submit(spec_a)
        job_b, created = sched.submit(spec_b)
        assert job_b is job_a and not created
        # ...but result-shaping knobs still split jobs
        job_c, created = sched.submit(
            {"design": "tinycore:fib", "sfi": {"injections": 5},
             "campaign": {"workers": 1}})
        assert created and job_c is not job_a
    finally:
        sched.drain(grace=5)


def test_invalid_spec_rejected_at_admission(tmp_path):
    sched = _scheduler(tmp_path)
    sched.start()
    try:
        with pytest.raises(SpecError, match="unknown"):
            sched.submit({"design": "tinycore:fib", "bogus": {}})
        assert sched.stats()["counters"]["requests"] == 0
    finally:
        sched.drain(grace=5)


def test_backpressure_rejects_when_queue_full(tmp_path):
    _GATE.clear()
    sched = _scheduler(tmp_path, worker=_gated_worker, queue_limit=1)
    sched.start()
    try:
        job, _ = sched.submit(dict(SPEC))
        with pytest.raises(QueueFullError) as excinfo:
            sched.submit(dict(OTHER_SPEC))
        assert excinfo.value.retry_after >= 1.0
        # Identical requests still coalesce: dedup costs no queue slot.
        again, created = sched.submit(dict(SPEC))
        assert again is job and not created
        assert sched.stats()["counters"]["rejected"] == 1
        _GATE.set()
        assert job.await_terminal(timeout=30) and job.state == DONE
        # Capacity freed: the previously rejected spec is admitted now.
        job2, created = sched.submit(dict(OTHER_SPEC))
        assert created and job2.await_terminal(timeout=30)
    finally:
        _GATE.set()
        sched.drain(grace=5)


def test_failed_job_resubmission_reexecutes(tmp_path):
    calls = {"n": 0}

    def flaky(task):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("flaky boom")
        return {"ok": True}

    sched = _scheduler(tmp_path, worker=flaky, max_retries=1)
    sched.start()
    try:
        job, _ = sched.submit(dict(SPEC))
        assert job.await_terminal(timeout=30) and job.state == FAILED
        assert "flaky boom" in job.error

        again, created = sched.submit(dict(SPEC))
        assert again is job and created     # failed jobs re-queue
        assert job.await_terminal(timeout=30) and job.state == DONE
        counters = sched.stats()["counters"]
        assert counters["retries"] == 1
        assert counters["executions"] == 2
    finally:
        sched.drain(grace=5)


def test_drain_rejects_new_work_and_finishes_in_flight(tmp_path):
    _GATE.clear()
    sched = _scheduler(tmp_path, worker=_gated_worker)
    sched.start()
    job, _ = sched.submit(dict(SPEC))
    drained = []
    drainer = threading.Thread(target=lambda: drained.append(sched.drain(30)))
    drainer.start()
    try:
        deadline = threading.Event()
        for _ in range(100):
            if sched.draining:
                break
            deadline.wait(0.05)
        assert sched.draining
        with pytest.raises(ServerDrainingError):
            sched.submit(dict(OTHER_SPEC))
    finally:
        _GATE.set()
        drainer.join(timeout=30)
    assert drained == [True]
    assert job.state == DONE


@pytest.mark.slow
def test_worker_crash_degrades_job_not_server(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    crash_spec = {"design": "tinycore:fib",
                  "sart": {"monolithic": True, "loop_pavf": 0.666}}
    good_spec = {"design": "tinycore:fib",
                 "sart": {"monolithic": True, "loop_pavf": 0.25}}
    sched = _scheduler(tmp_path, worker=_chaos_worker, workers=2,
                       max_retries=1, cache_dir=str(scratch))
    # Submit both before starting so they land in one pool batch (a
    # single-task batch would run serially in-process, where os._exit
    # would take the whole test down).
    bad, _ = sched.submit(crash_spec)
    good, _ = sched.submit(good_spec)
    sched.start()
    try:
        assert bad.await_terminal(timeout=60) and bad.state == FAILED
        assert "chaos: permanently broken" in bad.error
        assert good.await_terminal(timeout=60) and good.state == DONE
        assert sched.pool.restarts >= 1      # the crash respawned workers
        assert (scratch / "crashed-once").exists()

        # The server is still healthy: new work is admitted and runs.
        third, created = sched.submit(
            {"design": "tinycore:fib",
             "sart": {"monolithic": True, "loop_pavf": 0.5}})
        assert created
        assert third.await_terminal(timeout=60) and third.state == DONE
        counters = sched.stats()["counters"]
        assert counters["failed"] == 1 and counters["completed"] == 2
    finally:
        sched.drain(grace=10)


def test_malformed_ports_file_fails_its_job_not_the_server(tmp_path):
    # Runs the real pipeline worker: a ports file with a short line used
    # to raise SystemExit, which killed the scheduler thread and left
    # every job behind it queued forever.
    bad = tmp_path / "ports.txt"
    bad.write_text("S1 0.1 0.0 0.3\nS2 only-two\n")
    sched = JobScheduler(str(tmp_path / "state"))
    sched.start()
    try:
        job, _ = sched.submit({"design": "tinycore:fib", "ports": str(bad)})
        assert job.await_terminal(timeout=60), job.state
        assert job.state == FAILED
        assert f"SpecError: {bad}:2: expected 'name pavf_r pavf_w [avf]'" \
            in job.error
        after, _ = sched.submit(dict(SPEC))
        assert after.await_terminal(timeout=60), after.state
        assert after.state == DONE
    finally:
        sched.drain(grace=5)


def _eco_worker(task):
    """A job whose summary carries an ECO block (warm or cold by knob)."""
    warm = task["spec"]["sart"]["loop_pavf"] > 0.5
    return {
        "ok": True,
        "eco": {"warm": warm, "dirty_fubs": ["LSU"] if warm else [],
                "resolved_fubs": 1 if warm else 15},
    }


def test_eco_counters_accumulate_from_job_results(tmp_path):
    sched = _scheduler(tmp_path, worker=_eco_worker)
    sched.start()
    try:
        warm_spec = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.9}}
        cold_spec = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.1}}
        for spec in (warm_spec, cold_spec):
            job, _ = sched.submit(dict(spec))
            assert job.await_terminal(timeout=30) and job.state == DONE
        counters = sched.stats()["counters"]
        assert counters["eco_jobs"] == 2
        assert counters["warm_solves"] == 1
        assert counters["cold_solves"] == 1
        # The /stats document surfaces the same counters.
        assert sched.stats()["counters"]["eco_jobs"] == 2
    finally:
        sched.drain(grace=5)


def test_jobs_without_eco_blocks_leave_counters_untouched(tmp_path):
    sched = _scheduler(tmp_path)          # _ok_worker: no eco block
    sched.start()
    try:
        job, _ = sched.submit(dict(SPEC))
        assert job.await_terminal(timeout=30) and job.state == DONE
        counters = sched.stats()["counters"]
        assert counters["eco_jobs"] == 0
        assert counters["warm_solves"] == counters["cold_solves"] == 0
    finally:
        sched.drain(grace=5)


def test_job_worker_keeps_one_store_per_cache_dir(tmp_path, monkeypatch):
    # Two warm jobs in one process unpickle the plan once: the second
    # gets the resident plan the first loaded.
    import pickle

    import repro.serve.scheduler as scheduler
    from repro.pipeline import ArtifactStore, execute, spec_from_mapping
    from repro.serve.jobs import stable_result
    from repro.serve.scheduler import job_worker

    cache = str(tmp_path / "cache")
    warm = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.4}}
    execute(spec_from_mapping(warm), store=ArtifactStore(cache))
    monkeypatch.setattr(scheduler, "_STORES", {})
    loaded = []
    real_load = pickle.load

    def counting_load(handle, *args, **kwargs):
        loaded.append(os.path.basename(os.path.dirname(handle.name)))
        return real_load(handle, *args, **kwargs)

    monkeypatch.setattr(pickle, "load", counting_load)
    first = job_worker({"spec": warm, "cache_dir": cache})
    second = job_worker({"spec": warm, "cache_dir": cache})
    assert loaded.count("plan") == 1
    assert {"golden", "ports", "plan"} <= set(second["cached_stages"])
    assert stable_result(first) == stable_result(second)
