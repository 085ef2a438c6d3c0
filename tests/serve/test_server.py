"""HTTP front-end tests: routes, status codes, SSE, health, drain."""

import json
import threading
import urllib.error
import urllib.request

from repro.serve import loadgen
from repro.serve.loadgen import get_json, percentile, post_json
from repro.serve.server import ServeApp

SPEC = {"design": "tinycore:fib", "sart": {"monolithic": True}}
OTHER_SPEC = {"design": "tinycore:fib", "sart": {"monolithic": False}}
GATED_SPEC = {"design": "tinycore:fib",
              "sart": {"monolithic": True, "loop_pavf": 0.9}}

_GATE = threading.Event()


def _worker(task):
    if task["spec"].get("sart", {}).get("loop_pavf") == 0.9:
        _GATE.wait(timeout=30)
    return {"ok": True, "design": task["spec"]["design"]}


def _app(tmp_path, **kwargs):
    kwargs.setdefault("worker", _worker)
    kwargs.setdefault("heartbeat", 0.05)
    return ServeApp(str(tmp_path / "state"), **kwargs).start_background()


def test_submit_status_result_and_dedup_codes(tmp_path):
    app = _app(tmp_path)
    try:
        status, doc = post_json(f"{app.url}/jobs", SPEC)
        assert status == 201 and not doc["deduplicated"]
        job_id = doc["id"]

        final = loadgen.await_job(app.url, job_id, timeout=30)
        assert final["state"] == "done"
        assert final["result"]["ok"] is True

        status, doc = post_json(f"{app.url}/jobs", SPEC)
        assert status == 200 and doc["deduplicated"]
        assert doc["id"] == job_id and doc["state"] == "done"

        status, doc = get_json(f"{app.url}/jobs/{job_id}?spec=1")
        assert status == 200 and doc["spec"]["design"] == "tinycore:fib"

        status, doc = get_json(f"{app.url}/jobs")
        assert status == 200 and len(doc["jobs"]) == 1
    finally:
        app.drain()


def test_error_codes(tmp_path):
    app = _app(tmp_path)
    try:
        status, doc = post_json(f"{app.url}/jobs",
                                {"design": "tinycore:fib", "bogus": {}})
        assert status == 400 and "bogus" in doc["error"]
        # Bad [sart] values and the removed [sart] engine/relax_workers
        # and [campaign] backend keys are refused at admission, naming
        # the offending key.
        for section, body in (
                ("sart", {"iterations": "abc"}), ("sart", {"iterations": 0}),
                ("sart", {"loop_pavf": 7}), ("sart", {"monolithic": "false"}),
                ("sart", {"engine": "walk"}), ("sart", {"relax_workers": 2}),
                ("campaign", {"backend": "python"})):
            status, doc = post_json(f"{app.url}/jobs",
                                    {"design": "tinycore:fib", section: body})
            assert status == 400, body
            assert next(iter(body)) in doc["error"]

        request = urllib.request.Request(
            f"{app.url}/jobs", data=b"not json", method="POST")
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400

        status, _ = get_json(f"{app.url}/jobs/job-doesnotexist00/result")
        assert status == 404
        status, _ = get_json(f"{app.url}/nope")
        assert status == 404
        status, _ = post_json(f"{app.url}/nope", {})
        assert status == 404
    finally:
        app.drain()


def test_backpressure_returns_429_with_retry_after(tmp_path):
    _GATE.clear()
    app = _app(tmp_path, queue_limit=1, job_timeout=3.0)
    try:
        status, doc = post_json(f"{app.url}/jobs", GATED_SPEC)
        assert status == 201

        request = urllib.request.Request(
            f"{app.url}/jobs", data=json.dumps(OTHER_SPEC).encode(),
            method="POST", headers={"Content-Type": "application/json"})
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected HTTP 429")
        except urllib.error.HTTPError as exc:
            assert exc.code == 429
            assert int(exc.headers["Retry-After"]) >= 1

        status, ready = get_json(f"{app.url}/readyz")
        assert status == 503 and not ready["ready"]
        _GATE.set()
        loadgen.await_job(app.url, doc["id"], timeout=30)
        status, ready = get_json(f"{app.url}/readyz")
        assert status == 200 and ready["ready"]
    finally:
        _GATE.set()
        app.drain()


def test_healthz_and_stats(tmp_path):
    app = _app(tmp_path, cache_dir=str(tmp_path / "cache"))
    try:
        status, health = get_json(f"{app.url}/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["pool"]["degraded"] is False

        status, doc = post_json(f"{app.url}/jobs", SPEC)
        loadgen.await_job(app.url, doc["id"], timeout=30)

        status, stats = get_json(f"{app.url}/stats")
        assert status == 200
        assert stats["counters"]["completed"] == 1
        assert stats["counters"]["executions"] == 1
        assert stats["jobs"]["done"] == 1
        assert stats["store"]["root"] == str(tmp_path / "cache")
    finally:
        app.drain()


def test_sse_stream_emits_states_heartbeats_and_end(tmp_path):
    _GATE.clear()
    app = _app(tmp_path, heartbeat=0.05)
    try:
        _, doc = post_json(f"{app.url}/jobs", GATED_SPEC)
        lines = []
        release = threading.Timer(0.4, _GATE.set)
        release.start()
        with urllib.request.urlopen(
                f"{app.url}/jobs/{doc['id']}/events", timeout=30) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            for raw in resp:
                line = raw.decode().rstrip("\n")
                lines.append(line)
                if line == "event: end":
                    break
        release.cancel()
        states = [json.loads(line[6:])["state"] for line in lines
                  if line.startswith("data: ") and line != "data: {}"]
        assert states[-1] == "done"
        assert ": heartbeat" in lines      # idle gap produced heartbeats
        assert lines[-1] == "event: end"
    finally:
        _GATE.set()
        app.drain()


def test_sse_on_finished_job_replays_final_state(tmp_path):
    app = _app(tmp_path)
    try:
        _, doc = post_json(f"{app.url}/jobs", SPEC)
        loadgen.await_job(app.url, doc["id"], timeout=30)
        with urllib.request.urlopen(
                f"{app.url}/jobs/{doc['id']}/events", timeout=10) as resp:
            body = []
            for raw in resp:
                body.append(raw.decode().rstrip("\n"))
                if body[-1] == "event: end":
                    break
        assert any('"state": "done"' in line for line in body)
    finally:
        app.drain()


def test_draining_server_rejects_submissions_with_503(tmp_path):
    _GATE.clear()
    app = _app(tmp_path, drain_grace=30)
    drained = []
    try:
        _, doc = post_json(f"{app.url}/jobs", GATED_SPEC)
        drainer = threading.Thread(target=lambda: drained.append(app.drain()))
        drainer.start()
        for _ in range(200):
            if app.scheduler.draining:
                break
            threading.Event().wait(0.02)
        status, body = post_json(f"{app.url}/jobs", OTHER_SPEC)
        assert status == 503 and "draining" in body["error"]
        status, ready = get_json(f"{app.url}/readyz")
        assert status == 503 and ready["reason"] == "draining"
    finally:
        _GATE.set()
    drainer.join(timeout=30)
    assert drained == [True]


def test_percentile_interpolates():
    values = [0.1, 0.2, 0.3, 0.4]
    assert percentile(values, 0.0) == 0.1
    assert percentile(values, 1.0) == 0.4
    assert abs(percentile(values, 0.5) - 0.25) < 1e-12
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
