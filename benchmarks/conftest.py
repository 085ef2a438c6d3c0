"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index). Heavy artifacts — the bigcore design and
the ACE-model workload suite — are built once per session.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import pytest

from repro.ace.portavf import suite_ports


def pytest_collection_modifyitems(items):
    # Everything under benchmarks/ is a performance test; the marker is
    # registered in pyproject.toml so `-m bench` / `-m "not bench"`
    # select cleanly when benchmarks are collected alongside tests/.
    for item in items:
        item.add_marker(pytest.mark.bench)
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports
from repro.workloads import default_suite

ROOT = Path(__file__).resolve().parent.parent
# perfbench/ is a directory of plain modules beside src/; its reference
# loop gauges the host a record was taken on.
sys.path.insert(0, str(ROOT))
from perfbench.hostspeed import time_reference_loop  # noqa: E402

BENCH_JSON_PATH = ROOT / "BENCH_simulator.json"
BENCH_SART_PATH = ROOT / "BENCH_sart.json"
BENCH_PIPELINE_PATH = ROOT / "BENCH_pipeline.json"
BENCH_SERVE_PATH = ROOT / "BENCH_serve.json"
BENCH_ECO_PATH = ROOT / "BENCH_eco.json"


def _flush_bench(path: Path, data: dict) -> None:
    """Merge *data* into the JSON sink at *path* (partial runs refresh
    only their own keys). The ``host`` block names the interpreter and
    machine and times ``perfbench/hostspeed.py``'s reference loop, the
    figure perfbench scales its timings by."""
    if not data:
        return
    merged: dict[str, object] = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except ValueError:
            merged = {}
    merged.update(data)
    merged["host"] = {
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "ref_loop_s": round(time_reference_loop(), 4),
    }
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")


@pytest.fixture(scope="session")
def bench_json():
    """Machine-readable benchmark sink, flushed to BENCH_simulator.json.

    Benchmarks drop ``{key: record}`` entries into the yielded dict; at
    session end the entries are merged into any existing file, so partial
    runs (e.g. the CI smoke subset) refresh only their own keys.
    """
    data: dict[str, object] = {}
    yield data
    _flush_bench(BENCH_JSON_PATH, data)


@pytest.fixture(scope="session")
def bench_sart_json():
    """Propagation-engine benchmark sink, flushed to BENCH_sart.json."""
    data: dict[str, object] = {}
    yield data
    _flush_bench(BENCH_SART_PATH, data)


@pytest.fixture(scope="session")
def bench_pipeline_json():
    """Artifact-cache benchmark sink, flushed to BENCH_pipeline.json."""
    data: dict[str, object] = {}
    yield data
    _flush_bench(BENCH_PIPELINE_PATH, data)


@pytest.fixture(scope="session")
def bench_serve_json():
    """Job-server benchmark sink, flushed to BENCH_serve.json."""
    data: dict[str, object] = {}
    yield data
    _flush_bench(BENCH_SERVE_PATH, data)


@pytest.fixture(scope="session")
def bench_eco_json():
    """Incremental re-solve (ECO) benchmark sink, BENCH_eco.json."""
    data: dict[str, object] = {}
    yield data
    _flush_bench(BENCH_ECO_PATH, data)


@pytest.fixture(scope="session")
def bigcore_design():
    return build_bigcore(BigcoreConfig(scale=1.0, seed=42))


@pytest.fixture(scope="session")
def model_ports():
    """ACE-model port AVFs averaged over the workload suite."""
    traces = default_suite(per_class=3, length=5000)
    ports, results = suite_ports(traces)
    return ports, results


@pytest.fixture(scope="session")
def bigcore_ports(bigcore_design, model_ports):
    ports, _ = model_ports
    return map_structure_ports(bigcore_design, ports)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Fixed-width table printer shared by the benchmarks."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) + 2 for i, h in enumerate(header)]
    print("".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
