"""HTTP front-end tests: routes, status codes, SSE, health, drain."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import loadgen
from repro.serve.loadgen import get_json, percentile, post_json
from repro.serve.server import ServeApp, _Handler

SPEC = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.3}}
OTHER_SPEC = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.4}}
GATED_SPEC = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.9}}

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
        # Bad section values and the removed [sart] engine/relax_workers/
        # iterations/monolithic, [campaign] backend and [sweep] batched
        # keys are refused at admission, naming the offending key.
        for section, body in (
                ("sart", {"iterations": 20}), ("sart", {"monolithic": True}),
                ("sart", {"loop_pavf": 7}),
                ("sart", {"engine": "walk"}), ("sart", {"relax_workers": 2}),
                ("campaign", {"backend": "python"}),
                ("sweep", {"points": "x"}), ("sweep", {"points": 2.5}),
                ("sweep", {"points": 0}), ("sweep", {"points": -3}),
                ("sweep", {"points": True}), ("sweep", {"batched": False}),
                ("sfi", {"injections": "x"}), ("campaign", {"workers": "a"}),
                ("beam", {"flux": "high"}), ("workloads", {"per_class": "x"}),
                ("derating", {"mc_trials": "x"}), ("export", {"output": 5}),
                ("export", {"format": "vhdl", "output": "x.v"}),
                ("sfi", {"injections": -5})):
            status, doc = post_json(f"{app.url}/jobs",
                                    {"design": "tinycore:fib", section: body})
            assert status == 400, body
            assert next(iter(body)) in doc["error"]
        # Design refs resolve at admission: a malformed or oversized one
        # is a 400 naming it, not a job that fails or hangs in a worker.
        for spec, named in (
                ({"design": "bigcore@scale=abc"}, "scale='abc'"),
                ({"design": "nope:x"}, "'nope'"),
                ({"design": "tinycore:quux"}, "unknown program"),
                ({"design": "bigcore@scale=1e300"}, "node ceiling"),
                ({"design": "bigcore@edit=NOPE"}, "names no FUB"),
                ({"design": "bigcore@feedback_fubs=-3"}, "feedback_fubs"),
                ({"design": "systolic@data_width=0,acc_width=0,rows=2,cols=2"},
                 "data_width")):
            status, doc = post_json(f"{app.url}/jobs", spec)
            assert status == 400 and named in doc["error"], (spec, doc)
        status, doc = get_json(f"{app.url}/jobs")
        assert status == 200 and doc["jobs"] == []

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


def test_an_eco_section_is_refused_at_every_entry_point(tmp_path):
    # [eco] is no section: a spec file, a POST and a journaled job that
    # had not finished are each refused as an unknown section, and a
    # job that had finished is re-served as recorded.
    from repro.errors import SpecError
    from repro.pipeline.spec import load_spec
    from repro.serve.jobs import DONE, job_id_for
    from repro.serve.scheduler import JobScheduler

    refused = "unknown section(s) ['eco']"
    eco = {"design": "bigcore@scale=0.1,edit=LSU",
           "eco": {"baseline": "bigcore@scale=0.1"}}
    path = tmp_path / "eco.toml"
    path.write_text('design = "bigcore@scale=0.1,edit=LSU"\n'
                    '[eco]\nbaseline = "bigcore@scale=0.1"\n')
    with pytest.raises(SpecError) as excinfo:
        load_spec(str(path))
    assert refused in str(excinfo.value)

    unfinished, finished = (job_id_for(c * 64) for c in "ab")
    journal = JobScheduler(str(tmp_path / "state"), worker=_worker).journal
    for job_id in (unfinished, finished):
        journal.record(event="submitted", job=job_id, fingerprint="",
                       spec=eco, time=0.0)
    journal.record(event=DONE, job=finished, time=1.0, result={"ok": True})
    journal.close()

    app = _app(tmp_path)
    try:
        status, doc = post_json(f"{app.url}/jobs", eco)
        assert status == 400 and refused in doc["error"]
        status, doc = get_json(f"{app.url}/jobs/{unfinished}")
        assert doc["state"] == "failed" and refused in doc["error"]
        status, doc = get_json(f"{app.url}/jobs/{finished}")
        assert doc["state"] == "done" and doc["result"] == {"ok": True}
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


def _raw_post(app, body: bytes, length: str | None) -> tuple[int, dict, dict]:
    """POST /jobs over a raw socket, Content-Length exactly as given.

    Returns the status, the lower-cased headers and the JSON body.
    """
    head = [b"POST /jobs HTTP/1.1", b"Host: localhost", b"Connection: close"]
    if length is not None:
        head.append(b"Content-Length: " + length.encode())
    with socket.create_connection((app.host, app.port), timeout=10) as sock:
        sock.sendall(b"\r\n".join(head) + b"\r\n\r\n" + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, headers, json.loads(response.read())


_DEEP_ARRAY = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("body, length, closes", [
    (json.dumps(SPEC).encode(), "abc", True),
    (json.dumps(SPEC).encode(), "-1", True),
    (json.dumps(SPEC).encode(), str(10 ** 12), True),
    (_DEEP_ARRAY, str(len(_DEEP_ARRAY)), False),
])
def test_malformed_body_is_a_400(tmp_path, body, length, closes):
    app = _app(tmp_path)
    try:
        status, headers, doc = _raw_post(app, body, length)
        assert status == 400 and doc["error"]
        if closes:                  # the body was never read
            assert headers["connection"] == "close"
        status, health = get_json(f"{app.url}/healthz")
        assert status == 200 and health["status"] == "ok"
        status, doc = post_json(f"{app.url}/jobs", SPEC)
        assert status == 201
        assert loadgen.await_job(app.url, doc["id"], timeout=30)["state"] \
            == "done"
    finally:
        app.drain()


def test_stalled_body_is_dropped(tmp_path, monkeypatch):
    # A client that sends 10 of its declared 100 body bytes and then
    # goes silent loses its connection after the handler's socket
    # timeout instead of holding the handler thread.
    assert _Handler.timeout is not None and _Handler.timeout > 0
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    app = _app(tmp_path)
    try:
        with socket.create_connection((app.host, app.port), timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                         b"Content-Length: 100\r\n\r\n" + b"{" * 10)
            assert sock.recv(1024) == b""       # closed, no reply
        status, health = get_json(f"{app.url}/healthz")
        assert status == 200 and health["status"] == "ok"
    finally:
        app.drain()


def _stub_worker(task):
    return {"ok": True}


@pytest.fixture(scope="module")
def fuzz_app(tmp_path_factory):
    app = ServeApp(str(tmp_path_factory.mktemp("fuzz") / "state"),
                   worker=_stub_worker).start_background()
    yield app
    app.drain()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12,
)
# Objects that reach the spec checks: a design ref plus random sections.
_SPECISH = st.fixed_dictionaries(
    {"design": st.sampled_from(["tinycore:fib", "bigcore@scale=0.1", "nope"])},
    optional={key: _JSON for key in (
        "sart", "sfi", "beam", "campaign", "sweep", "eco", "ports", "bogus")},
)
_DEEP = st.builds(
    lambda prefix, depth, array: (
        prefix + (b"[" * depth + b"]" * depth if array
                  else b'{"a": ' * depth + b"0" + b"}" * depth)
        + b"}" * prefix.count(b"{")),
    st.sampled_from([b"", b'{"design": "tinycore:fib", "sart": ',
                     b'{"design": "tinycore:fib", "sfi": {"seed": ']),
    st.integers(500, 100_000),
    st.booleans(),
)
_BODIES = st.one_of(
    st.binary(max_size=300),
    (_JSON | _SPECISH).map(lambda value: json.dumps(value).encode()),
    _DEEP,
)
_LENGTHS = st.one_of(
    st.none(),                                    # header absent
    st.just("exact"),
    st.integers(max_value=-1).map(str),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E),
            min_size=1, max_size=8).filter(lambda text: not text.isdigit()),
)


@pytest.mark.fuzz
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(body=_BODIES, length=_LENGTHS)
def test_fuzz_raw_post_bodies(fuzz_app, body, length):
    # Short bodies (fewer bytes than Content-Length) wait out the
    # handler's socket timeout: test_stalled_body_is_dropped.
    length = str(len(body)) if length == "exact" else length
    status, headers, doc = _raw_post(fuzz_app, body, length)
    assert status in {200, 201, 400, 429, 503}
    assert headers["content-type"] == "application/json"
    assert isinstance(doc, dict)
    assert get_json(f"{fuzz_app.url}/healthz")[0] == 200


def test_percentile_interpolates():
    values = [0.1, 0.2, 0.3, 0.4]
    assert percentile(values, 0.0) == 0.1
    assert percentile(values, 1.0) == 0.4
    assert abs(percentile(values, 0.5) - 0.25) < 1e-12
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0
