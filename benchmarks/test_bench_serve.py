"""Job-server benchmark: requests/s, latency percentiles, dedup proof.

Boots a real :class:`~repro.serve.server.ServeApp` (real pipeline
executions of cheap tinycore SART specs, warm artifact cache), drives
it with the load generator, and flushes the metrics to
``BENCH_serve.json``. The dedup-burst block is the acceptance check for
the serving layer: 8 identical concurrent requests must coalesce onto
one job and exactly one pipeline execution, proven from outside the
process via the ``executions`` counter in ``/stats``.
"""

from __future__ import annotations

from repro.serve.loadgen import run_load
from repro.serve.server import ServeApp


def test_serve_throughput_and_dedup(tmp_path, bench_serve_json):
    app = ServeApp(
        str(tmp_path / "state"),
        cache_dir=str(tmp_path / "cache"),
        queue_limit=64,
    ).start_background()
    try:
        doc = run_load(app.url, clients=4, requests=240, dedup_burst=8)
    finally:
        app.drain()

    assert doc["errors"] == []
    assert doc["completed"] == 240
    assert doc["requests_per_second"] > 0
    assert doc["latency_p50_seconds"] <= doc["latency_p95_seconds"]
    # Later jobs reuse the golden/ports/plan artifacts of earlier ones
    # (designs are never stored).
    assert doc["cache_hit_rate"] > 0

    burst = doc["dedup_burst"]
    assert burst["requests"] == 8
    assert burst["distinct_jobs"] == 1
    assert burst["executions"] == 1      # N identical requests, 1 execution

    bench_serve_json["serve"] = doc
