"""Perf — compiled propagation core vs the dict-based reference solver.

The compiled engine lowers the design once into CSR arrays with a cached
topological order (a reusable SolvePlan) and runs the forward/backward
fixpoints as index-based kernels. This bench pins the two contracts the
engine ships with:

* **equivalence** — per-FUB and per-node AVFs match the dataflow
  reference (the seed engine, now :mod:`repro.verify.dataflow`) within
  1e-9 on bigcore, and
* **speed** — an end-to-end ``--scale 2`` SART run is at least 5x faster
  than the seed engine once the plan is built (plan reuse is the product
  configuration: sweeps, per-net loop studies and re-analysis all hold a
  plan), with the cold build+solve time reported alongside.

Results land in ``BENCH_sart.json``: the bigcore rungs ``smoke`` (0.5),
``scale2`` and ``scale4``, each with ``nodes_per_second``;
``batched_sweep`` (one matrix pass for a 16-workload Figure-8 sweep vs
the per-workload loop); and the systolic ladder ``ladder_<side>``
(24, 40, 64 and 104 per side, the last 10^6 nodes), each rung a
per-phase record from its own process (``benchmarks/ladder.py``). The
``smoke`` subset (``-k smoke``) runs the equivalence + timing check on
``--scale 0.5`` in well under 30 s for CI, with or without numpy
installed, and CI runs the 24 x 24 rung; the larger rungs carry
``@pytest.mark.mega`` and run only with ``-m mega``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import print_table
from repro.core.batched import sweep_batched
from repro.core.compiled import HAVE_NUMPY
from repro.core.sart import SartConfig, build_plan, run_sart
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports
from repro.netlist.graph import extract_graph
from repro.verify.reference import run_reference


def _setup(scale, model_ports):
    design = build_bigcore(BigcoreConfig(scale=scale, seed=42))
    ports, _ = model_ports
    mapped = map_structure_ports(design, ports)
    return extract_graph(design.module), mapped


@pytest.fixture(scope="module")
def half_setup(model_ports):
    return _setup(0.5, model_ports)


@pytest.fixture(scope="module")
def scale2_setup(model_ports):
    return _setup(2.0, model_ports)


@pytest.fixture(scope="module")
def scale4_setup(model_ports):
    return _setup(4.0, model_ports)


def _best_of(fn, rounds=3):
    times, result = [], None
    for _ in range(rounds):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return min(times), result


def _max_fub_delta(a, b):
    rows_a = {r.fub: r for r in a.report.fubs}
    rows_b = {r.fub: r for r in b.report.fubs}
    assert rows_a.keys() == rows_b.keys()
    return max(
        abs(rows_a[f].seq_avg_avf - rows_b[f].seq_avg_avf) for f in rows_a
    )


def _max_node_delta(a, b):
    return max(
        abs(na.avf - b.node_avfs[net].avf) for net, na in a.node_avfs.items()
    )


def _compare(graph, ports, *, rounds):
    t_seed, seed = _best_of(lambda: run_reference(graph, ports), rounds)
    t_cold, cold = _best_of(lambda: run_sart(graph, ports), rounds)
    plan = build_plan(graph, ports)
    warm_cfg = SartConfig()
    run_sart(plan=plan, config=warm_cfg)  # populate plan caches
    t_warm, warm = _best_of(
        lambda: run_sart(plan=plan, config=warm_cfg), rounds
    )
    return {
        "seed_seconds": t_seed,
        "cold_seconds": t_cold,
        "warm_seconds": t_warm,
        "cold_speedup": t_seed / t_cold,
        "warm_speedup": t_seed / t_warm,
        "max_fub_delta": _max_fub_delta(seed, cold),
        "max_node_delta": _max_node_delta(seed, cold),
        "warm_max_node_delta": _max_node_delta(seed, warm),
        "nodes": len(graph.nodes),
        "nodes_per_second": len(graph.nodes) / t_warm,
        "numpy": HAVE_NUMPY,
    }


def test_bench_smoke_sart_engines(half_setup, bench_sart_json):
    """CI smoke: equivalence + timing on scale 0.5, seconds total."""
    graph, ports = half_setup
    record = _compare(graph, ports, rounds=2)
    bench_sart_json["smoke"] = record
    print(
        f"\nsmoke (scale 0.5, numpy={record['numpy']}): "
        f"seed {record['seed_seconds']:.3f}s, "
        f"cold {record['cold_seconds']:.3f}s ({record['cold_speedup']:.1f}x), "
        f"warm {record['warm_seconds']:.3f}s ({record['warm_speedup']:.1f}x), "
        f"max node delta {record['max_node_delta']:.2e}"
    )
    assert record["max_fub_delta"] <= 1e-9
    assert record["max_node_delta"] <= 1e-9
    assert record["warm_max_node_delta"] <= 1e-9
    assert record["warm_speedup"] > 1.0


def test_bench_scale2_speedup(scale2_setup, bench_sart_json):
    """Headline: bigcore --scale 2, compiled vs seed, 5x with plan reuse."""
    graph, ports = scale2_setup
    record = _compare(graph, ports, rounds=3)
    bench_sart_json["scale2"] = record
    print_table(
        "bigcore --scale 2 — propagation engines",
        ["engine", "seconds", "speedup"],
        [
            ["dataflow (seed)", record["seed_seconds"], 1.0],
            ["compiled (cold: build+solve)", record["cold_seconds"],
             record["cold_speedup"]],
            ["compiled (plan reuse)", record["warm_seconds"],
             record["warm_speedup"]],
        ],
    )
    print(f"per-FUB max delta {record['max_fub_delta']:.2e}, "
          f"per-node max delta {record['max_node_delta']:.2e} "
          f"over {record['nodes']} nodes")
    assert record["max_fub_delta"] <= 1e-9
    assert record["max_node_delta"] <= 1e-9
    assert record["warm_max_node_delta"] <= 1e-9
    # Acceptance: >=5x against the seed engine with the plan in hand, and
    # the one-shot path (plan build included) still comfortably ahead.
    assert record["warm_speedup"] >= 5.0
    assert record["cold_speedup"] >= 1.5


def test_bench_scale4_rung(scale4_setup, bench_sart_json):
    """Scale-ladder rung between the bigcore default and the mega array."""
    graph, ports = scale4_setup
    record = _compare(graph, ports, rounds=2)
    bench_sart_json["scale4"] = record
    print(
        f"\nscale4 ({record['nodes']} nodes): "
        f"warm {record['warm_seconds']:.3f}s "
        f"({record['nodes_per_second']:.0f} nodes/s, "
        f"{record['warm_speedup']:.1f}x vs seed)"
    )
    assert record["max_fub_delta"] <= 1e-9
    assert record["max_node_delta"] <= 1e-9
    assert record["warm_speedup"] >= 5.0


def test_bench_batched_workload_sweep(scale2_setup, bench_sart_json):
    """16-workload Figure-8 sweep: one matrix pass vs the per-point loop.

    Acceptance: the batched path beats the per-workload loop by >= 3x
    (with numpy; the no-numpy fallback is equivalence-only), with every
    per-FUB average within 1e-9 of the per-point flow.
    """
    graph, ports = scale2_setup
    plan = build_plan(graph, ports)
    values = [i / 15 for i in range(16)]
    base_cfg = SartConfig(partition_by_fub=False)

    def _looped():
        reports = []
        for value in values:
            cfg = SartConfig(partition_by_fub=False, loop_pavf=value)
            reports.append(run_sart(plan=plan, config=cfg).report)
        return reports

    _looped()  # warm the plan's monolithic cache for both paths
    t_looped, looped = _best_of(_looped, rounds=2)
    t_batched, batched = _best_of(
        lambda: sweep_batched(plan, values, base_cfg), rounds=2
    )
    delta = 0.0
    for w, report in enumerate(looped):
        rows_a = {r.fub: r.seq_avg_avf for r in report.fubs}
        rows_b = {r.fub: r.seq_avg_avf for r in batched.report(w).fubs}
        assert rows_a.keys() == rows_b.keys()
        delta = max(
            delta, *(abs(rows_a[f] - rows_b[f]) for f in rows_a)
        )
    record = {
        "workloads": len(values),
        "looped_seconds": t_looped,
        "batched_seconds": t_batched,
        "speedup": t_looped / t_batched,
        "max_fub_delta": delta,
        "numpy": HAVE_NUMPY,
    }
    bench_sart_json["batched_sweep"] = record
    print(
        f"\nbatched 16-workload sweep: loop {t_looped:.3f}s, "
        f"batched {t_batched:.3f}s ({record['speedup']:.1f}x), "
        f"max fub delta {delta:.2e}"
    )
    assert delta <= 1e-9
    if HAVE_NUMPY:
        assert record["speedup"] >= 3.0


@pytest.mark.parametrize("side", [
    24, *(pytest.param(side, marks=pytest.mark.mega) for side in (40, 64, 104))
])
def test_bench_ladder_rung(side, bench_sart_json):
    """One systolic rung, ``side`` x ``side``, in a fresh process.

    ``benchmarks/ladder.py`` times parse, plan, solve, resolve+report
    and a 4-point batched sweep, records set storage and peak RSS, and
    checks two sweep points against per-point ``run_sart``. The 24 x 24
    rung (54,538 nodes) is the CI smoke; the others carry the ``mega``
    marker (104 x 104 is 1,018,538 nodes).
    """
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "ladder.py"), str(side)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout.splitlines()[-1])
    bench_sart_json[f"ladder_{side}"] = record
    print(
        f"\nladder {side}x{side} ({record['nodes']} nodes): parse "
        f"{record['parse_seconds']:.1f}s, plan {record['plan_seconds']:.1f}s, "
        f"solve {record['solve_seconds']:.1f}s "
        f"({record['solve_nodes_per_second']} nodes/s), resolve+report "
        f"{record['resolve_report_seconds']:.1f}s, sweep "
        f"{record['sweep_seconds']:.1f}s; sets "
        f"{record['set_storage_bytes'] / 2**20:.1f} MB; VmHWM "
        f"{record['vmhwm_after_solve_mb']:.0f} MB after the solve, "
        f"{record['vmhwm_end_mb']:.0f} MB at the end"
    )
