"""Drive ``repro-sart serve`` as a subprocess over its HTTP API.

A request is timed from sending ``POST /jobs`` until the client reads
the ``end`` event of ``GET /jobs/<id>/events``: the server pushes the
terminal state, so no poll interval rounds the latency. One connection
carries the POST and then the event stream, which the server closes.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

READY_TIMEOUT_S = 60.0
# From POST to the end event; the stream's heartbeats would otherwise
# keep a request to a stuck job open for ever.
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Reply:
    """One request's outcome and client-side timestamps."""

    status: int = 0
    deduplicated: bool = False
    job: dict | None = None        # the last job snapshot streamed
    sent: float = 0.0              # perf_counter before POST
    ended: float = 0.0             # perf_counter after reading ``end``
    ended_wall: float = 0.0        # time.time() at the same moment
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.ended - self.sent


def request_job(host: str, port: int, document: dict, *,
                tracer=None, timeout: float = REQUEST_TIMEOUT_S) -> Reply:
    """POST *document* and wait for the job's ``end`` event."""
    reply = Reply()
    body = json.dumps(document).encode()
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        reply.sent = time.perf_counter()
        with _span(tracer, "POST /jobs"):
            conn.request("POST", "/jobs", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
        reply.status = response.status
        if response.status not in (200, 201):
            reply.error = f"POST /jobs -> {response.status}"
            return reply
        doc = json.loads(payload)
        reply.deduplicated = bool(doc.get("deduplicated"))
        with _span(tracer, "GET /jobs/<id>/events"):
            conn.request("GET", f"/jobs/{doc['id']}/events")
            response = conn.getresponse()
            if response.status != 200:
                reply.error = f"GET events -> {response.status}"
                return reply
            reply.job = _read_until_end(response, reply.sent + timeout)
        reply.ended = time.perf_counter()
        reply.ended_wall = time.time()
        if reply.job is None:
            reply.error = "event stream ended without a job state"
        elif reply.job.get("state") != "done":
            reply.error = f"job {reply.job.get('state')}: {reply.job.get('error')}"
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        reply.error = f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()
    return reply


def _read_until_end(response, deadline: float) -> dict | None:
    event = None
    last = None
    while True:
        if time.perf_counter() > deadline:
            raise TimeoutError("no end event before the request timeout")
        line = response.readline()
        if not line:
            raise ValueError("event stream closed before the end event")
        line = line.decode().rstrip("\r\n")
        if line.startswith("event: "):
            event = line[len("event: "):]
        elif line.startswith("data: "):
            if event == "end":
                return last
            if event == "state":
                last = json.loads(line[len("data: "):])


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext({})


def get_json(host: str, port: int, path: str, *, tracer=None,
             timeout: float = 10.0) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        with _span(tracer, f"GET {path}"):
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class ServerProcess:
    """``python -m repro serve`` with its own state and cache directories."""

    host = "127.0.0.1"

    def __init__(self, workdir: str, src_dir: str):
        self.workdir = workdir
        self.src_dir = src_dir
        self.port = 0
        self.proc: subprocess.Popen | None = None
        self._log = None

    def start(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = self.workdir
        log_path = os.path.join(self.workdir, "serve.log")
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", os.path.join(self.workdir, "state"),
             "--cache-dir", os.path.join(self.workdir, "cache")],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=self.workdir,
        )
        deadline = time.monotonic() + READY_TIMEOUT_S
        self.port = self._await_port(log_path, deadline)
        while True:
            try:
                status, _ = get_json(self.host, self.port, "/readyz")
            except OSError:
                status = 0
            if status == 200:
                return
            self._check_deadline(deadline, "/readyz never returned 200")
            time.sleep(0.01)

    def _await_port(self, log_path: str, deadline: float) -> int:
        marker = f"serving on http://{self.host}:"
        while True:
            with open(log_path) as handle:
                for line in handle:
                    if line.startswith(marker):
                        return int(line[len(marker):].strip())
            self._check_deadline(deadline, "server never reported its port")
            time.sleep(0.01)

    def _check_deadline(self, deadline: float, why: str) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError(why)

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set (``VmHWM``) in MB."""
        path = f"/proc/{self.proc.pid}/status"
        with open(path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM in {path}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always reaps."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None
