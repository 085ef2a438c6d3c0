"""Job model and journal unit tests (durability + torn-write tolerance)."""

import json
import threading

import pytest

from repro.errors import JobJournalError
from repro.serve.jobs import (
    DONE,
    FAILED,
    QUEUED,
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    Job,
    JobJournal,
    job_id_for,
    load_journal,
    replay_journal,
    stable_result,
)


def _job(fp="a" * 64):
    return Job(id=job_id_for(fp), fingerprint=fp, spec={"design": "d"})


# -- Job -------------------------------------------------------------------

def test_transition_bumps_version_and_wakes_waiters():
    job = _job()
    assert job.state == QUEUED and job.version == 0
    seen = []

    def waiter():
        seen.append(job.await_terminal(timeout=10))

    thread = threading.Thread(target=waiter)
    thread.start()
    job.transition("running")
    job.transition(DONE, result={"x": 1})
    thread.join(timeout=10)
    assert seen == [True]
    assert job.version == 2
    assert job.started_at is not None and job.finished_at is not None


def test_await_terminal_times_out():
    assert _job().await_terminal(timeout=0.05) is False


def test_snapshot_round_trips_through_json():
    job = _job()
    job.transition(FAILED, error="boom")
    doc = json.loads(json.dumps(job.snapshot(include_spec=True)))
    assert doc["state"] == FAILED
    assert doc["error"] == "boom"
    assert doc["spec"] == {"design": "d"}
    assert "result" not in doc


def test_reset_for_retry_requeues():
    job = _job()
    job.transition(FAILED, error="boom")
    job.reset_for_retry()
    assert job.state == QUEUED
    assert job.error is None and job.finished_at is None


# -- journal ---------------------------------------------------------------

def test_journal_round_trip(tmp_path):
    path = tmp_path / "jobs.jsonl"
    journal = JobJournal(path)
    journal.record(event="submitted", job="job-1", fingerprint="f",
                   spec={"design": "d"}, time=1.0)
    journal.record(event=DONE, job="job-1", result={"x": 1}, time=2.0)
    journal.close()
    records = load_journal(path)
    assert [r["event"] for r in records] == ["submitted", DONE]

    jobs = list(replay_journal(records))
    assert len(jobs) == 1
    assert jobs[0].state == DONE
    assert jobs[0].result == {"x": 1}
    assert jobs[0].recovered


def test_journal_missing_file_is_empty(tmp_path):
    assert load_journal(tmp_path / "nope.jsonl") == []


def test_journal_reopen_appends_not_truncates(tmp_path):
    path = tmp_path / "jobs.jsonl"
    JobJournal(path).record(event="submitted", job="job-1")
    journal = JobJournal(path)   # reopen: no second header
    journal.record(event=DONE, job="job-1")
    journal.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["format"] == JOURNAL_FORMAT


def test_journal_tolerates_torn_final_record(tmp_path):
    path = tmp_path / "jobs.jsonl"
    journal = JobJournal(path)
    journal.record(event="submitted", job="job-1", spec={}, fingerprint="f")
    journal.close()
    with open(path, "a") as handle:
        handle.write('{"event": "done", "job": "job-1", "resu')  # SIGKILL
    records = load_journal(path)
    assert [r["event"] for r in records] == ["submitted"]
    jobs = list(replay_journal(records))
    assert jobs[0].state == QUEUED   # unfinished: will re-execute


def test_journal_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "jobs.jsonl"
    header = json.dumps({"format": JOURNAL_FORMAT, "version": JOURNAL_VERSION})
    path.write_text(header + "\n{garbage\n" + '{"event": "done", "job": "j"}\n')
    with pytest.raises(JobJournalError, match="corrupt line 2"):
        load_journal(path)


@pytest.mark.parametrize("line", [
    b"[1, 2]", b'"text"', b"3", b"null", b"\xff\xfe", b"[" * 5000 + b"]" * 5000,
])
def test_journal_rejects_any_record_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "jobs.jsonl"
    header = json.dumps({"format": JOURNAL_FORMAT, "version": JOURNAL_VERSION})
    path.write_bytes(header.encode() + b"\n" + line + b"\n"
                     + b'{"event": "done", "job": "j"}\n')
    with pytest.raises(JobJournalError, match="corrupt line 2"):
        load_journal(path)


def test_journal_written_by_the_previous_version_loads_unchanged(tmp_path):
    # A journal as its own writer wrote it before checkpoints shared
    # the log writer: header keys unsorted, record keys sorted.
    records = [
        {"event": "submitted", "job": "job-1", "fingerprint": "f",
         "spec": {"design": "d", "sart": {"loop_pavf": 0.3}}, "time": 1.0},
        {"event": DONE, "job": "job-1", "result": {"z": 1, "a": [2]},
         "time": 2.0},
    ]
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        json.dumps({"format": JOURNAL_FORMAT, "version": JOURNAL_VERSION})
        + "\n" + "".join(json.dumps(rec, sort_keys=True) + "\n"
                         for rec in records))
    assert load_journal(path) == records
    journal = JobJournal(path)          # reopening appends, no new header
    journal.record(event=FAILED, job="job-2", error="x", time=3.0)
    journal.close()
    assert load_journal(path) == records + [
        {"event": FAILED, "job": "job-2", "error": "x", "time": 3.0}]


def test_reopened_journal_cuts_a_torn_final_record(tmp_path):
    # The torn write must not fuse with the next record into a corrupt
    # line that would stop the following boot.
    path = tmp_path / "jobs.jsonl"
    JobJournal(path).record(event="submitted", job="job-1")
    with open(path, "a") as handle:
        handle.write('{"event": "done", "job": "job-1", "resu')
    journal = JobJournal(path)
    journal.record(event=DONE, job="job-1", result={"x": 1})
    journal.close()
    assert [rec["event"] for rec in load_journal(path)] == ["submitted", DONE]


def test_journal_writer_leaves_a_foreign_file_alone(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text("some notes\nwithout a final newline")
    JobJournal(path).close()
    assert path.read_text() == "some notes\nwithout a final newline"
    with pytest.raises(JobJournalError, match="unreadable header"):
        load_journal(path)


def test_journal_rejects_foreign_file(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text('{"format": "something-else", "version": 1}\n')
    with pytest.raises(JobJournalError, match="not a serve job journal"):
        load_journal(path)


def test_journal_rejects_future_version(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text(json.dumps({"format": JOURNAL_FORMAT, "version": 99}) + "\n")
    with pytest.raises(JobJournalError, match="unsupported version"):
        load_journal(path)


def test_replay_resubmission_after_failure_wins(tmp_path):
    records = [
        {"event": "submitted", "job": "job-1", "fingerprint": "f",
         "spec": {"design": "d"}, "time": 1.0},
        {"event": FAILED, "job": "job-1", "error": "boom", "time": 2.0},
        {"event": "submitted", "job": "job-1", "fingerprint": "f",
         "spec": {"design": "d"}, "time": 3.0},
        {"event": DONE, "job": "job-1", "result": {"x": 1}, "time": 4.0},
    ]
    jobs = list(replay_journal(records))
    assert len(jobs) == 1
    assert jobs[0].state == DONE and jobs[0].result == {"x": 1}


# -- stable_result ---------------------------------------------------------

def test_stable_result_strips_volatile_keys_recursively():
    payload = {
        "weighted_seq_avf": 0.25,
        "elapsed_seconds": 1.23,
        "sfi": {"avf": 0.3, "resumed_passes": 4, "pool_restarts": 1,
                "intervals": [{"lo": 0.1, "elapsed_seconds": 9.0}]},
        "cached_stages": ["golden"],
    }
    assert stable_result(payload) == {
        "weighted_seq_avf": 0.25,
        "sfi": {"avf": 0.3, "intervals": [{"lo": 0.1}]},
    }


def test_stable_result_is_identity_for_scalars_and_lists():
    assert stable_result([1, "x", 2.5]) == [1, "x", 2.5]
    assert stable_result("plain") == "plain"
