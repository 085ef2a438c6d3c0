"""ECO-mode benchmark — incremental re-solve vs cold solve on a 1-FUB edit.

The acceptance story of the per-FUB incremental subsystem: a one-FUB
ECO (``edit=LSU``, a numerically neutral re-buffering inside the LSU)
on bigcore must warm-start from the unedited baseline, re-solve a
strict subset of the FUBs, land bit-identically on the cold solution,
and do so in a fraction of the cold wall time. The smoke rung (CI)
runs at scale 0.3; the full rung pins the headline ratio at scale 4.

Records per rung in ``BENCH_eco.json``: node/FUB counts, the static
dirty set vs the dynamic re-solve front, and cold/warm wall seconds.
The timings are medians of :data:`PAIRS` cold/warm pairs, each on a
freshly unpickled plan, so no pair reads a cache another pair filled
(a plan caches a cold relaxation's first sweep); the ratio is the median
of the pairs' ratios. One pair's ratio scatters too widely between runs
to gate on.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import time

from conftest import print_table
from repro.core.sart import SartConfig, build_plan, run_sart
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports
from repro.pipeline.delta import diff_plans, warm_start_from_result

CFG = SartConfig(partition_by_fub=True, iterations=20)
PAIRS = 5


def _timed(plan, **kwargs):
    # Each timed solve starts from a collected heap: at scale 4 one full
    # collection of the set-up garbage costs ~0.25 s, and wherever it
    # happens to fire it would be charged to that solve.
    gc.collect()
    started = time.perf_counter()
    result = run_sart(plan=plan, config=CFG, **kwargs)
    return result, time.perf_counter() - started


def _eco_rung(scale: float, ports) -> dict:
    base = build_bigcore(BigcoreConfig(scale=scale, seed=42))
    edit = build_bigcore(BigcoreConfig(scale=scale, seed=42, edit="LSU"))
    base_ports = map_structure_ports(base, ports)
    edit_ports = map_structure_ports(edit, ports)
    plan_a = build_plan(base.module, base_ports)
    plan_b = build_plan(edit.module, edit_ports)

    baseline = run_sart(plan=plan_a, config=CFG)
    delta = diff_plans(plan_a, plan_b)
    assert delta.touched == {"LSU"}
    warm_start = warm_start_from_result(plan_b, delta.touched, baseline)
    blob = pickle.dumps(plan_b, protocol=pickle.HIGHEST_PROTOCOL)

    cold_times, warm_times = [], []
    for _ in range(PAIRS):
        plan = pickle.loads(blob)
        cold, cold_s = _timed(plan)
        warm, warm_s = _timed(plan, warm_start=warm_start)
        cold_times.append(cold_s)
        warm_times.append(warm_s)
        # Bit-identical, not approximately equal.
        assert warm.node_avfs == cold.node_avfs
        assert warm.f_sets == cold.f_sets
        assert warm.b_sets == cold.b_sets
        assert warm.report == cold.report
        # The dynamic re-solve front is a strict subset of the FUBs.
        assert warm.trace.warm and warm.trace.converged
        assert 0 < warm.trace.resolved_fubs < plan_b.n_fubs
    cold_s = statistics.median(cold_times)
    warm_s = statistics.median(warm_times)
    assert warm_s < cold_s

    return {
        "scale": scale,
        "nodes": plan_b.n,
        "fubs": plan_b.n_fubs,
        "static_dirty_fubs": len(delta.dirty),
        "resolved_fubs": int(warm.trace.resolved_fubs),
        "warm_iterations": int(warm.trace.iterations),
        "cold_iterations": int(cold.trace.iterations),
        "pairs": PAIRS,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_over_cold": round(statistics.median(
            w / c for w, c in zip(warm_times, cold_times)), 4),
    }


def _report(title: str, record: dict) -> None:
    print_table(
        title,
        ["nodes", "FUBs", "re-solved", "cold s", "warm s", "ratio"],
        [[record["nodes"], record["fubs"], record["resolved_fubs"],
          record["cold_seconds"], record["warm_seconds"],
          record["warm_over_cold"]]],
    )


def test_bench_eco_smoke(bench_eco_json, model_ports):
    ports, _ = model_ports
    record = _eco_rung(0.3, ports)
    _report("ECO re-solve, 1-FUB edit at scale 0.3 (CI smoke)", record)
    bench_eco_json["eco_smoke"] = record


def test_bench_eco_full_scale4(bench_eco_json, model_ports):
    ports, _ = model_ports
    record = _eco_rung(4.0, ports)
    _report("ECO re-solve, 1-FUB edit at scale 4", record)
    # The headline acceptance: warm wall time at most 0.35x cold, in the
    # median pair.
    assert record["warm_over_cold"] <= 0.35
    bench_eco_json["eco_scale4"] = record
