#!/usr/bin/env python
"""Serve smoke: the job server's lifecycle end to end, against a real process.

Boots ``repro-sart serve`` on a free port and checks, in order:

* ``/readyz`` answers 200 within :data:`BOOT_TIMEOUT` seconds;
* a POST whose ``Content-Length`` is ``abc`` is a 400 with a JSON
  ``error`` (the job below still completes);
* a tinycore job POSTs (201), its event stream is
  ``text/event-stream`` and reaches the ``end`` event, and its result
  reads ``state == "done"``;
* two more jobs on the same design, each with another ``loop_pavf``
  (the warm path: with ``--cache-dir`` their ``cached_stages`` include
  ``golden``, ``ports`` and ``plan``);
* every job's result equals ``run_summary`` of a local run of its spec,
  timings and cache provenance aside (``stable_result``);
* SIGTERM drains the server: it exits 143 and logs ``drained``.

Usage::

    python tools/serve_smoke.py [--cache-dir DIR]   # repro importable

``--cache-dir`` is passed to the server. Exits 1 and prints the server
log when a check fails.
"""

from __future__ import annotations

import argparse
import http.client
import json
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

BOOT_TIMEOUT = 30  # seconds until the server must answer /readyz
JOB_TIMEOUT = 120  # seconds the job may take to reach its end event
JOB = {"design": "tinycore:fib", "sart": {"loop_pavf": 0.3}}
WARM_JOBS = ({"design": "tinycore:fib", "sart": {"loop_pavf": 0.7}},
             {"design": "tinycore:fib", "sart": {"loop_pavf": 0.35}})
WARM_STAGES = {"golden", "ports", "plan"}


def _pump(stream, lines: list[str], booted: threading.Event) -> None:
    """Collect the server's output; set *booted* once it names its URL."""
    for line in stream:
        lines.append(line)
        if line.startswith("serving on "):
            booted.set()


def _ready(base: str) -> None:
    deadline = time.time() + BOOT_TIMEOUT
    while True:
        try:
            with urllib.request.urlopen(base + "/readyz", timeout=2) as r:
                if r.status == 200:
                    return
        except OSError:
            pass
        if time.time() > deadline:
            raise AssertionError(f"/readyz not 200 within {BOOT_TIMEOUT} s")
        time.sleep(0.2)


def _malformed_post(host: str, port: int) -> None:
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Length: abc\r\n\r\n{}")
        bad = http.client.HTTPResponse(sock)
        bad.begin()
        assert bad.status == 400, bad.status
        assert "error" in json.loads(bad.read())


def _job(base: str, spec: dict) -> dict:
    request = urllib.request.Request(
        base + "/jobs", data=json.dumps(spec).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as r:
        assert r.status == 201, r.status
        job = json.loads(r.read())
    with urllib.request.urlopen(f"{base}/jobs/{job['id']}/events",
                                timeout=JOB_TIMEOUT) as r:
        assert r.headers["Content-Type"] == "text/event-stream", r.headers
        if not any(raw.decode().strip() == "event: end" for raw in r):
            raise AssertionError("SSE stream never reached the end event")
    with urllib.request.urlopen(f"{base}/jobs/{job['id']}/result",
                                timeout=10) as r:
        doc = json.loads(r.read())
    assert doc["state"] == "done", doc
    return doc


def _checked_job(base: str, spec: dict, cached: bool) -> dict:
    """Run *spec* on the server; its result must be what a local run
    computes. *cached*: the run's golden run, ports and plan come from
    the store."""
    from repro.pipeline import execute, spec_from_mapping
    from repro.pipeline.emit import run_summary
    from repro.serve.jobs import stable_result

    result = _job(base, spec)["result"]
    local = run_summary(execute(spec_from_mapping(spec)))
    assert stable_result(result) == stable_result(local), (spec, result, local)
    if cached:
        assert WARM_STAGES <= set(result["cached_stages"]), result
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", help="artifact cache for the server")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as state_dir:
        cmd = [sys.executable, "-u", "-m", "repro.cli", "serve",
               "--port", "0", "--state-dir", state_dir]
        if args.cache_dir:
            cmd += ["--cache-dir", args.cache_dir]
        server = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        lines: list[str] = []
        booted = threading.Event()
        reader = threading.Thread(target=_pump,
                                  args=(server.stdout, lines, booted))
        reader.start()
        try:
            if not booted.wait(BOOT_TIMEOUT):
                raise AssertionError(f"no 'serving on' line in {BOOT_TIMEOUT} s")
            base = next(line for line in lines
                        if line.startswith("serving on ")).split()[-1]
            host, port = base.removeprefix("http://").rsplit(":", 1)
            _ready(base)
            _malformed_post(host, int(port))
            result = _checked_job(base, JOB, cached=False)
            print("serve smoke: weighted_seq_avf =", result["weighted_seq_avf"])
            for spec in WARM_JOBS:
                _checked_job(base, spec, cached=bool(args.cache_dir))
            server.send_signal(signal.SIGTERM)
            code = server.wait(timeout=60)
            reader.join(timeout=10)
            assert code == 143, f"server exited {code}, expected 143"
            assert any(line.strip() == "drained" for line in lines), \
                "server log has no 'drained' line"
        except Exception as exc:
            print(f"FAIL serve smoke: {exc!r}\n--- server log ---\n"
                  + "".join(lines))
            return 1
        finally:
            if server.poll() is None:
                server.kill()
            server.wait()
            reader.join(timeout=10)
    print("serve smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
