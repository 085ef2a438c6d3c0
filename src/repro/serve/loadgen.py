"""Concurrent load generator and serve benchmark (``BENCH_serve.json``).

Drives a running job server over plain ``urllib`` with two phases:

* **throughput** — *clients* threads push *requests* distinct cheap
  run-specs (same design, varying ``sart.loop_pavf`` so fingerprints
  differ but early pipeline stages share artifacts) and poll each to
  completion, measuring end-to-end latency.
* **dedup burst** — N threads POST one *identical* fresh spec at the
  same instant; the server must coalesce them onto a single job, which
  the report proves from the outside: the ``executions`` counter in
  ``/stats`` moves by exactly one.

The emitted metrics document feeds ``BENCH_serve.json``: requests/s,
p50/p95 latency, dedup hit rate, and the pipeline cache hit rate
observed across completed jobs.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any


def get_json(url: str, timeout: float = 10.0) -> tuple[int, dict]:
    """GET *url*, returning (status, decoded JSON body)."""
    request = urllib.request.Request(url, method="GET")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}")


def post_json(url: str, document: dict, timeout: float = 10.0) -> tuple[int, dict]:
    """POST *document* as JSON to *url*, returning (status, body)."""
    body = json.dumps(document).encode()
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}")


def await_job(base_url: str, job_id: str, *, timeout: float = 120.0,
              poll: float = 0.05) -> dict:
    """Poll ``/jobs/<id>/result`` until the job reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while True:
        status, doc = get_json(f"{base_url}/jobs/{job_id}/result")
        if status in (200, 500):
            return doc
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still {doc.get('state')!r} "
                               f"after {timeout:g}s")
        time.sleep(poll)


def percentile(values: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of *values* by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _spec_for(index: int, total: int) -> dict:
    # Distinct fingerprints, shared design/golden/plan artifacts: only
    # the loop-boundary pAVF varies.
    pavf = round(index / max(1, total - 1), 4) if total > 1 else 0.5
    return {"design": "tinycore:fib",
            "sart": {"monolithic": True, "loop_pavf": pavf}}


DEDUP_SPEC = {"design": "tinycore:fib",
              "sart": {"monolithic": True, "loop_pavf": 0.123456}}


def run_load(base_url: str, *, clients: int = 4, requests: int = 8,
             dedup_burst: int = 8, job_timeout: float = 120.0) -> dict:
    """Run both phases against *base_url* and return the metrics doc."""
    base_url = base_url.rstrip("/")

    # -- phase 1: throughput over distinct specs -----------------------
    latencies: list[float] = []
    dedup_flags: list[bool] = []
    results: list[dict] = []
    errors: list[str] = []
    lock = threading.Lock()
    work = list(range(requests))

    def client() -> None:
        while True:
            with lock:
                if not work:
                    return
                index = work.pop()
            spec = _spec_for(index, requests)
            t0 = time.monotonic()
            try:
                status, doc = post_json(f"{base_url}/jobs", spec)
                if status not in (200, 201):
                    raise RuntimeError(f"POST /jobs -> {status}: {doc}")
                final = await_job(base_url, doc["id"], timeout=job_timeout)
                elapsed = time.monotonic() - t0
                with lock:
                    latencies.append(elapsed)
                    dedup_flags.append(bool(doc.get("deduplicated")))
                    results.append(final)
            except Exception as exc:  # noqa: BLE001 - collected for the report
                with lock:
                    errors.append(f"request {index}: {exc}")

    t_start = time.monotonic()
    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(max(1, clients))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase1_seconds = time.monotonic() - t_start

    completed = [r for r in results if r.get("state") == "done"]
    cache_warm = [r for r in completed
                  if (r.get("result") or {}).get("cached_stages")]

    # -- phase 2: concurrent dedup burst -------------------------------
    _, stats_before = get_json(f"{base_url}/stats")
    burst_docs: list[dict] = []

    def burst() -> None:
        status, doc = post_json(f"{base_url}/jobs", DEDUP_SPEC)
        with lock:
            doc["_status"] = status
            burst_docs.append(doc)

    burst_threads = [threading.Thread(target=burst, daemon=True)
                     for _ in range(max(1, dedup_burst))]
    for thread in burst_threads:
        thread.start()
    for thread in burst_threads:
        thread.join()
    burst_ids = {doc.get("id") for doc in burst_docs}
    if len(burst_ids) == 1 and burst_ids != {None}:
        await_job(base_url, next(iter(burst_ids)), timeout=job_timeout)
    _, stats_after = get_json(f"{base_url}/stats")

    burst_executions = (stats_after["counters"]["executions"]
                        - stats_before["counters"]["executions"])

    doc: dict[str, Any] = {
        "url": base_url,
        "clients": clients,
        "requests": requests,
        "completed": len(completed),
        "errors": errors,
        "seconds": round(phase1_seconds, 6),
        "requests_per_second": round(
            len(latencies) / phase1_seconds, 3) if phase1_seconds else 0.0,
        "latency_p50_seconds": round(percentile(latencies, 0.50), 6),
        "latency_p95_seconds": round(percentile(latencies, 0.95), 6),
        "dedup_hit_rate": round(
            sum(dedup_flags) / len(dedup_flags), 4) if dedup_flags else 0.0,
        "cache_hit_rate": round(
            len(cache_warm) / len(completed), 4) if completed else 0.0,
        "dedup_burst": {
            "requests": len(burst_docs),
            "distinct_jobs": len(burst_ids),
            "executions": burst_executions,
        },
        "server_counters": stats_after.get("counters", {}),
    }
    return doc
