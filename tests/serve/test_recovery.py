"""Crash-recovery tests: journal replay, torn writes, kill -9 + restart.

The subprocess test is the chaos acceptance check: a real ``repro-sart
serve`` process is SIGKILLed mid-campaign, restarted on the same state
directory, and must resume the job from its checkpoint and produce a
result whose deterministic core is bit-identical to an undisturbed
in-process execution of the same spec.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import loadgen
from repro.serve.jobs import DONE, FAILED, job_id_for, stable_result
from repro.serve.scheduler import JobScheduler

SPEC = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.3}}


def _ok_worker(task):
    return {"ok": True, "fingerprint-echo": task["spec"]["design"]}


def test_completed_job_reserved_byte_identically_after_restart(tmp_path):
    state = str(tmp_path / "state")
    first = JobScheduler(state, worker=_ok_worker)
    first.start()
    job, _ = first.submit(dict(SPEC))
    assert job.await_terminal(timeout=30) and job.state == DONE
    result = job.result
    first.drain(grace=5)

    second = JobScheduler(state, worker=_ok_worker)
    second.start()
    try:
        recovered = second.job(job.id)
        assert recovered is not None and recovered.recovered
        assert recovered.state == DONE
        assert recovered.result == result           # byte-identical replay
        assert second.stats()["counters"]["recovered"] == 1
        assert second.stats()["counters"]["resumed"] == 0
        # ...and resubmitting the same spec is a pure dedup hit.
        again, created = second.submit(dict(SPEC))
        assert again is recovered and not created
        assert second.stats()["counters"]["executions"] == 0
    finally:
        second.drain(grace=5)


def test_unfinished_job_reexecutes_after_restart(tmp_path):
    state = str(tmp_path / "state")
    # Simulate a crash after admission but before execution: journal the
    # submission, then fall over without running anything.
    first = JobScheduler(state, worker=_ok_worker)
    job, _ = first.submit(dict(SPEC))
    first.journal.close()                            # never started

    second = JobScheduler(state, worker=_ok_worker)
    second.start()
    try:
        recovered = second.job(job.id)
        assert recovered is not None and recovered.recovered
        assert recovered.await_terminal(timeout=30)
        assert recovered.state == DONE
        counters = second.stats()["counters"]
        assert counters["recovered"] == 1
        assert counters["resumed"] == 1
        assert counters["executions"] == 1
    finally:
        second.drain(grace=5)


def test_restart_tolerates_torn_final_journal_record(tmp_path):
    state = tmp_path / "state"
    first = JobScheduler(str(state), worker=_ok_worker)
    first.start()
    job, _ = first.submit(dict(SPEC))
    assert job.await_terminal(timeout=30)
    first.drain(grace=5)
    with open(state / "jobs.jsonl", "a") as handle:
        handle.write('{"event": "submitted", "job": "job-torn", "spe')

    second = JobScheduler(str(state), worker=_ok_worker)
    second.start()
    try:
        assert second.job(job.id).state == DONE
        assert second.job("job-torn") is None
    finally:
        second.drain(grace=5)


def test_job_journaled_under_old_schema_fails_on_restart(tmp_path):
    # Jobs queued by older servers: their journaled normalized specs
    # spell out the since-removed [sart] engine, relax_workers,
    # iterations and monolithic keys, the since-removed [campaign]
    # backend key, or the since-removed [sweep] batched key, or carry a
    # value the section check refuses.
    state = tmp_path / "state"
    old_specs = {
        "0123456789abcdef" * 4: (
            {"design": "tinycore:fib",
             "sart": {"loop_pavf": 0.3, "iterations": 20,
                      "monolithic": True, "engine": "compiled",
                      "relax_workers": 1}},
            "['engine', 'iterations', 'monolithic', 'relax_workers']"),
        "0f1e2d3c4b5a6978" * 4: (
            {"design": "tinycore:fib",
             "sart": {"loop_pavf": 0.3, "iterations": 20,
                      "monolithic": False}},
            "['iterations', 'monolithic'] in [sart]"),
        "fedcba9876543210" * 4: (
            {"design": "tinycore:fib",
             "sfi": {"injections": 8, "seed": 1},
             "campaign": {"backend": None, "workers": 1}},
            "['backend'] in [campaign]"),
        "00112233445566778899aabbccddeeff" * 2: (
            {"design": "bigcore@scale=0.1",
             "sweep": {"points": 4, "batched": True}},
            "['batched'] in [sweep]"),
        "ffeeddccbbaa99887766554433221100" * 2: (
            {"design": "tinycore:fib",
             "sfi": {"injections": "x", "seed": 1, "per_node": False}},
            "[sfi] injections must be an integer >= 1"),
    }
    first = JobScheduler(str(state), worker=_ok_worker)
    for fingerprint, (old_spec, _) in old_specs.items():
        first.journal.record(event="submitted", job=job_id_for(fingerprint),
                             fingerprint=fingerprint, spec=old_spec, time=0.0)
    first.journal.close()                            # never started

    second = JobScheduler(str(state), worker=_ok_worker)
    second.start()
    try:
        for fingerprint, (_, named) in old_specs.items():
            old = second.job(job_id_for(fingerprint))
            assert old is not None and old.state == FAILED
            assert named in old.error
        counters = second.stats()["counters"]
        assert counters["resumed"] == 0 and counters["executions"] == 0
        # ...and the server keeps serving new work.
        job, created = second.submit(dict(SPEC))
        assert created and job.await_terminal(timeout=30)
        assert job.state == DONE
    finally:
        second.drain(grace=5)

    # The failures are journaled: a further restart re-serves them failed.
    third = JobScheduler(str(state), worker=_ok_worker)
    third.start()
    try:
        for fingerprint in old_specs:
            assert third.job(job_id_for(fingerprint)).state == FAILED
    finally:
        third.drain(grace=5)


# -- the full kill -9 acceptance test --------------------------------------

SFI_SPEC = {
    "design": "tinycore:fib",
    "sfi": {"injections": 160, "seed": 7},
    # One fault lane per pass: many short passes, so the checkpoint
    # gains records quickly and SIGKILL reliably lands mid-campaign.
    "campaign": {"lanes_per_pass": 1},
}


def _spawn_server(state_dir, cache_dir):
    repo_src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(state_dir), "--cache-dir", str(cache_dir),
         "--heartbeat", "0.5"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30
    url = None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited early (rc={proc.poll()})")
        if "serving on " in line:
            url = line.strip().split("serving on ", 1)[1]
            break
    assert url, "server never announced its port"
    return proc, url


@pytest.mark.slow
def test_kill9_restart_resumes_job_bit_identically(tmp_path):
    state, cache = tmp_path / "state", tmp_path / "cache"
    proc, url = _spawn_server(state, cache)
    job_id = None
    try:
        status, doc = loadgen.post_json(f"{url}/jobs", SFI_SPEC)
        assert status == 201
        job_id = doc["id"]
        checkpoint = state / "checkpoints" / f"{job_id}.jsonl"

        # Wait for real progress: header + at least two completed passes.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if checkpoint.exists() and len(
                    checkpoint.read_text().splitlines()) >= 3:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("campaign never checkpointed progress")

        proc.kill()                                  # SIGKILL, no cleanup
        proc.wait(timeout=10)
        assert proc.returncode == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # Restart on the same state dir: the job must recover and resume.
    proc2, url2 = _spawn_server(state, cache)
    try:
        final = loadgen.await_job(url2, job_id, timeout=120)
        assert final["state"] == "done"
        assert final["recovered"] is True
        # The resumed campaign really loaded checkpointed passes...
        assert final["result"]["sfi"]["resumed_passes"] >= 2

        # ...and its deterministic core matches an undisturbed run of
        # the same normalized spec executed directly in this process.
        from repro.pipeline.spec import spec_from_mapping
        from repro.serve.scheduler import job_worker

        undisturbed = job_worker({
            "spec": spec_from_mapping(SFI_SPEC).to_mapping(),
            "checkpoint": None,
            "cache_dir": None,
        })
        assert stable_result(final["result"]) == stable_result(undisturbed)

        # Graceful shutdown path: SIGTERM drains and exits 143.
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=60)
        assert proc2.returncode == 143
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait(timeout=10)
