"""The stdlib HTTP/JSON front end of the AVF job server.

Routes (all JSON unless noted)::

    POST /jobs               submit a run-spec document
                             201 created / 200 deduplicated onto an
                             existing job / 400 invalid spec /
                             429 + Retry-After backpressure /
                             503 draining
    GET  /jobs               all known jobs (snapshots)
    GET  /jobs/<id>          one job's snapshot (?spec=1 embeds the
                             normalized spec)
    GET  /jobs/<id>/result   200 result when done, 202 still pending,
                             500 the job failed permanently
    GET  /jobs/<id>/events   SSE progress stream (text/event-stream):
                             a ``state`` event per transition,
                             ``: heartbeat`` comments while idle, one
                             final ``end`` event at a terminal state
    GET  /healthz            liveness + worker-pool degradation
    GET  /readyz             200 accepting / 503 draining or saturated
    GET  /stats              queue, dedup counters, pool, artifact store

Built on ``http.server.ThreadingHTTPServer`` — one thread per
connection, which is exactly what SSE needs and costs no dependencies.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import QueueFullError, ServerDrainingError, SpecError
from repro.serve.jobs import DONE, FAILED, TERMINAL_STATES, Job
from repro.serve.scheduler import JobScheduler, job_initializer, job_worker

# A run-spec document is a few hundred bytes; a larger declared body is
# refused unread instead of being buffered.
_MAX_BODY = 1 << 20


class JobHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the app reference for handlers."""

    daemon_threads = True
    allow_reuse_address = True
    app: "ServeApp"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: JobHTTPServer
    # Socket timeout (seconds) on every read and write: a client that
    # sends fewer body bytes than its Content-Length, or goes silent
    # mid-request, is dropped (handle_one_request catches the
    # TimeoutError) instead of holding its handler thread.
    timeout = 30

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        self.server.app.log(f"{self.address_string()} {format % args}")

    def _json(self, code: int, payload: dict,
              headers: dict[str, str] | None = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()
                and int(declared) <= _MAX_BODY):
            # The body stays unread, so this connection cannot carry
            # another request: close it after the 400.
            self.close_connection = True
            raise SpecError(f"Content-Length must be a byte count from 0 to "
                            f"{_MAX_BODY}, not {declared!r}")
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        try:
            doc = json.loads(raw.decode() or "null")
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON and bad UTF-8; RecursionError
            # is nesting deeper than the decoder's recursion limit.
            raise SpecError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SpecError("request body must be a JSON object (a run-spec)")
        return doc

    # -- routes --------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        app = self.server.app
        if urlparse(self.path).path != "/jobs":
            self._json(404, {"error": f"no such route: POST {self.path}"})
            return
        try:
            document = self._read_body()
            job, created = app.scheduler.submit(document)
        except SpecError as exc:
            self._json(400, {"error": str(exc)}, {"Connection": "close"}
                       if self.close_connection else None)
        except QueueFullError as exc:
            self._json(429, {"error": str(exc)},
                       {"Retry-After": str(int(max(1, exc.retry_after)))})
        except ServerDrainingError as exc:
            self._json(503, {"error": str(exc)})
        else:
            doc = job.snapshot()
            doc["deduplicated"] = not created
            self._json(201 if created else 200, doc)

    def do_GET(self) -> None:  # noqa: N802
        app = self.server.app
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]

        if url.path == "/healthz":
            self._json(200, app.health())
        elif url.path == "/readyz":
            ready, why = app.readiness()
            self._json(200 if ready else 503, {"ready": ready, "reason": why})
        elif url.path == "/stats":
            self._json(200, app.stats())
        elif url.path == "/jobs":
            self._json(200, {"jobs": [job.snapshot()
                                      for job in app.scheduler.jobs()]})
        elif len(parts) >= 2 and parts[0] == "jobs":
            job = app.scheduler.job(parts[1])
            if job is None:
                self._json(404, {"error": f"unknown job {parts[1]!r}"})
            elif len(parts) == 2:
                include_spec = parse_qs(url.query).get("spec") == ["1"]
                self._json(200, job.snapshot(include_spec=include_spec))
            elif parts[2] == "result":
                self._result(job)
            elif parts[2] == "events":
                self._events(job)
            else:
                self._json(404, {"error": f"no such route: GET {self.path}"})
        else:
            self._json(404, {"error": f"no such route: GET {self.path}"})

    def _result(self, job: Job) -> None:
        snap = job.snapshot()
        if snap["state"] == DONE:
            self._json(200, snap)
        elif snap["state"] == FAILED:
            self._json(500, snap)
        else:
            self._json(202, snap)

    def _events(self, job: Job) -> None:
        """SSE progress stream with heartbeats (chunked until done)."""
        app = self.server.app
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        last = -1
        try:
            while True:
                with job.cond:
                    if (job.version == last
                            and job.state not in TERMINAL_STATES):
                        job.cond.wait(app.heartbeat)
                    version = job.version
                    state = job.state
                    snap = job.snapshot()
                if version != last:
                    last = version
                    data = json.dumps(snap, sort_keys=True)
                    self.wfile.write(
                        f"event: state\ndata: {data}\n\n".encode())
                else:
                    self.wfile.write(b": heartbeat\n\n")
                self.wfile.flush()
                if state in TERMINAL_STATES:
                    self.wfile.write(b"event: end\ndata: {}\n\n")
                    self.wfile.flush()
                    break
        except (BrokenPipeError, ConnectionResetError):
            pass
        self.close_connection = True


class ServeApp:
    """The assembled job server: scheduler + HTTP front end.

    ``start()`` recovers the journal and binds the socket;
    ``serve_forever()`` blocks (the CLI foreground path) while
    ``start_background()`` runs the HTTP loop on a thread (tests, load
    generation). ``drain()`` is the one shutdown path: stop admitting,
    finish in-flight jobs within the grace budget, then close the
    socket, pool, and journal.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str | None = None,
        workers: int = 1,
        queue_limit: int = 32,
        job_timeout: float | None = None,
        max_retries: int = 2,
        heartbeat: float = 5.0,
        drain_grace: float = 30.0,
        worker=job_worker,
        initializer=job_initializer,
        echo=None,
    ):
        self.host = host
        self.port = port
        self.heartbeat = max(0.1, heartbeat)
        self.drain_grace = drain_grace
        self._echo = echo
        self.started_at = time.time()
        self.scheduler = JobScheduler(
            state_dir,
            cache_dir=cache_dir,
            workers=workers,
            queue_limit=queue_limit,
            job_timeout=job_timeout,
            max_retries=max_retries,
            worker=worker,
            initializer=initializer,
        )
        self.httpd: JobHTTPServer | None = None
        self._http_thread: threading.Thread | None = None

    # -- logging -------------------------------------------------------
    def log(self, message: str) -> None:
        if self._echo is not None:
            self._echo(message)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServeApp":
        self.scheduler.start()
        self.httpd = JobHTTPServer((self.host, self.port), _Handler)
        self.httpd.app = self
        self.port = self.httpd.server_address[1]
        self.log(f"serving on http://{self.host}:{self.port}")
        return self

    def serve_forever(self) -> None:
        assert self.httpd is not None, "call start() first"
        self.httpd.serve_forever(poll_interval=0.2)

    def start_background(self) -> "ServeApp":
        if self.httpd is None:
            self.start()
        self._http_thread = threading.Thread(
            target=self.serve_forever, name="serve-http", daemon=True
        )
        self._http_thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def drain(self) -> bool:
        """Graceful shutdown; returns True when no work was abandoned."""
        self.log("draining: no new jobs accepted")
        clean = self.scheduler.drain(self.drain_grace)
        if self.httpd is not None:
            self.httpd.shutdown()
            self.httpd.server_close()
            self.httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self.log("drained" if clean else
                 "drain grace expired with work still pending "
                 "(journaled for the next boot)")
        return clean

    # -- health --------------------------------------------------------
    def health(self) -> dict:
        pool = self.scheduler.pool
        return {
            "status": "degraded" if pool.degraded else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "pool": {
                "workers": pool.workers,
                "restarts": pool.restarts,
                "degraded": pool.degraded,
            },
        }

    def readiness(self) -> tuple[bool, str]:
        if self.scheduler.draining:
            return False, "draining"
        pending, limit = self.scheduler.pressure()
        if pending >= limit:
            return False, f"queue full ({pending}/{limit})"
        return True, f"accepting ({pending}/{limit} pending)"

    def stats(self) -> dict:
        doc = self.scheduler.stats()
        doc["uptime_seconds"] = round(time.time() - self.started_at, 3)
        if self.scheduler.cache_dir:
            from repro.pipeline.store import ArtifactStore
            doc["store"] = ArtifactStore(self.scheduler.cache_dir).stats()
        return doc
