"""Pipeline benchmarks — cold vs warm runs, and a cold run by layer.

The pipeline's on-disk artifact store (``--cache-dir``) exists so that
re-running an analysis skips the expensive stages: the ACE workload
suite and the compiled-plan lowering for bigcore, the golden gate-level
run for tinycore campaigns. ``warm_cache`` measures that directly — the
same run-spec executed cold and then warm against one cache directory —
and ``cold_bigcore`` times each layer of a cold ``bigcore@scale=1`` run,
the path every first run of the CLI takes. Both land in
``BENCH_pipeline.json``.
"""

from __future__ import annotations

import statistics
import time

import repro.designs.bigcore.core
import repro.pipeline.runner
import repro.pipeline.stages
from conftest import print_table
from perfbench.hostspeed import time_reference_loop
from repro.pipeline import (
    ArtifactStore,
    RunSpec,
    SfiSpec,
    WorkloadsSpec,
    execute,
)

BIGCORE_SPEC = RunSpec(
    design="bigcore@scale=0.3",
    workloads=WorkloadsSpec(per_class=1, length=1000),
)
TINYCORE_SPEC = RunSpec(
    design="tinycore:fib", sfi=SfiSpec(injections=60, seed=1),
)


def _timed(spec, store):
    started = time.perf_counter()
    outcome = execute(spec, store=store)
    return outcome, time.perf_counter() - started


def test_bench_pipeline_warm_cache_smoke(tmp_path, bench_pipeline_json):
    cache = tmp_path / "cache"

    cold, cold_s = _timed(BIGCORE_SPEC, ArtifactStore(cache))
    warm, warm_s = _timed(BIGCORE_SPEC, ArtifactStore(cache))

    cached = {e.stage for e in warm.events if e.cached}
    # The warm run must skip the ACE suite and the plan lowering.
    assert cached >= {"ace", "plan"}
    # ... and change nothing numeric.
    assert (warm.sart.result.report.table()
            == cold.sart.result.report.table())

    t_cold, tc_s = _timed(TINYCORE_SPEC, ArtifactStore(cache))
    t_warm, tw_s = _timed(TINYCORE_SPEC, ArtifactStore(cache))
    assert {e.stage for e in t_warm.events if e.cached} >= {"golden", "sfi"}
    assert t_warm.sfi.result.counts() == t_cold.sfi.result.counts()

    rows = [
        ["bigcore report", f"{cold_s:.2f}", f"{warm_s:.2f}",
         f"{cold_s / warm_s:.1f}x", ",".join(sorted(cached))],
        ["tinycore sfi", f"{tc_s:.2f}", f"{tw_s:.2f}",
         f"{tc_s / tw_s:.1f}x",
         ",".join(sorted(e.stage for e in t_warm.events if e.cached))],
    ]
    print_table(
        "warm-cache speedup (same spec, same cache dir)",
        ["flow", "cold s", "warm s", "speedup", "stages reused"],
        rows,
    )
    bench_pipeline_json["warm_cache"] = {
        "bigcore_report": {
            "cold_seconds": round(cold_s, 4),
            "warm_seconds": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 2),
            "cached_stages": sorted(cached),
        },
        "tinycore_sfi": {
            "cold_seconds": round(tc_s, 4),
            "warm_seconds": round(tw_s, 4),
            "speedup": round(tc_s / tw_s, 2),
            "cached_stages": sorted(
                e.stage for e in t_warm.events if e.cached
            ),
        },
    }


# Each layer of a cold bigcore run, by the module attribute the pipeline
# calls it through. The build runs inside the plan stage, before
# ``build_plan``; ``validate_s`` is part of ``build_s``.
COLD_LAYERS = (
    ("ace_suite_s", repro.pipeline.runner, "stage_ace_ports"),
    ("build_s", repro.pipeline.runner, "stage_design"),
    ("validate_s", repro.designs.bigcore.core, "validate_module"),
    ("plan_s", repro.pipeline.stages, "build_plan"),
    ("solve_s", repro.pipeline.stages, "run_sart"),
)
# (label, ACE instructions per workload, cold runs): perfbench's
# bigcore_report length and the CLI default, each over the default 16
# workloads.
COLD_SUITES = (("16x500", 500, 5), ("16x4000", 4000, 2))


def _timed_layer(fn, key: str, seconds: dict):
    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[key] += time.perf_counter() - started
    return timed


def test_bench_pipeline_cold_bigcore(monkeypatch, bench_pipeline_json):
    ref_before = time_reference_loop()
    record: dict[str, dict] = {}
    for label, length, runs in COLD_SUITES:
        spec = RunSpec(design="bigcore@scale=1",
                       workloads=WorkloadsSpec(length=length))
        samples, tables = [], set()
        for _ in range(runs):
            seconds = dict.fromkeys([k for k, _, _ in COLD_LAYERS], 0.0)
            with monkeypatch.context() as patch:
                for key, owner, attr in COLD_LAYERS:
                    patch.setattr(owner, attr,
                                  _timed_layer(getattr(owner, attr), key, seconds))
                outcome, seconds["total_s"] = _timed(spec, None)
            samples.append(seconds)
            tables.add(outcome.sart.result.report.table())
        assert len(tables) == 1  # every cold run reports the same
        assert all(s["validate_s"] < s["build_s"] for s in samples)
        record[label] = {
            key: round(statistics.median(s[key] for s in samples), 4)
            for key in samples[0]
        }
        record[label]["runs"] = runs
    ref_after = time_reference_loop()

    layers = [k for k, _, _ in COLD_LAYERS] + ["total_s"]
    print_table(
        "cold bigcore@scale=1 by layer (median seconds)",
        ["suite"] + layers,
        [[label] + [record[label][k] for k in layers] for label in record],
    )
    bench_pipeline_json["cold_bigcore"] = {
        "design": "bigcore@scale=1",
        "workloads_per_class": WorkloadsSpec().per_class,
        "suites": record,
        # perfbench/hostspeed.py's reference loop, timed before and after:
        # divide a figure by it to compare records taken on other hosts.
        "host": {
            "ref_loop_s_before": round(ref_before, 4),
            "ref_loop_s_after": round(ref_after, 4),
        },
    }
