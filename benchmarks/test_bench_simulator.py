"""E8 — lane-scalable simulator throughput and campaign wall time.

Measures, on tinycore, (a) simulator cycles/second as the lane count
grows — per-gate bigint cost rises with the lane count, but far more
slowly than the lanes it carries — and (b) SFI campaign wall time for
the seed-era configuration (63 fault lanes per pass, serial) against the
wide-batch and multi-worker configurations this repo now supports.

Results are flushed to ``BENCH_simulator.json`` via the ``bench_json``
fixture for machine consumption (CI trend lines, the acceptance ratio).

The ``smoke`` subset (``-k smoke``) runs in well under 30 seconds for CI.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.graph import extract_graph
from repro.rtlsim.simulator import Simulator
from repro.sfi import plan_campaign, run_sfi_campaign

LANE_POINTS = (1, 64, 256, 1024)
CAMPAIGN_PROGRAM = "matmul"
CAMPAIGN_INJECTIONS = 256


@pytest.fixture(scope="module")
def fib_setup():
    words, dmem = program("fib"), default_dmem("fib")
    return words, dmem, build_tinycore(words, dmem)


@pytest.fixture(scope="module")
def campaign_setup():
    words, dmem = program(CAMPAIGN_PROGRAM), default_dmem(CAMPAIGN_PROGRAM)
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    seqs = extract_graph(netlist.module).seq_nets()
    plans = plan_campaign(seqs, golden.cycles - 2, CAMPAIGN_INJECTIONS, seed=7)
    return words, dmem, netlist, plans


def _cycles_per_second(words, dmem, netlist, lanes):
    sim = Simulator(netlist.module, lanes=lanes)
    started = time.perf_counter()
    run = run_gate_level(words, dmem, netlist=netlist, sim=sim)
    elapsed = time.perf_counter() - started
    return run.cycles / elapsed, run.cycles


def test_bench_cycles_per_second_by_lanes(fib_setup, bench_json):
    words, dmem, netlist = fib_setup
    rows = []
    record = {}
    for lanes in LANE_POINTS:
        cps, cycles = _cycles_per_second(words, dmem, netlist, lanes)
        rows.append([lanes, cycles, f"{cps:,.0f}", f"{cps * lanes:,.0f}"])
        record[f"lanes{lanes}"] = {
            "cycles_per_second": round(cps, 1),
            "lane_cycles_per_second": round(cps * lanes, 1),
        }
    print_table(
        "simulator throughput on tinycore fib (one full run per point)",
        ["lanes", "cycles", "cyc/s", "lane-cyc/s"],
        rows,
    )
    bench_json["throughput"] = record


def test_bench_campaign_wall_time(campaign_setup, bench_json):
    words, dmem, netlist, plans = campaign_setup
    configs = [
        ("63/pass serial (seed config)", dict(lanes_per_pass=63, workers=1)),
        ("255/pass serial", dict(lanes_per_pass=255, workers=1)),
        ("255/pass 4 workers", dict(lanes_per_pass=255, workers=4)),
    ]
    rows, timings = [], {}
    baseline_sig = baseline_seconds = None
    for label, kwargs in configs:
        result = run_sfi_campaign(words, dmem, plans, netlist=netlist, **kwargs)
        sig = [o.outcome for o in result.outcomes]
        if baseline_sig is None:
            baseline_sig, baseline_seconds = sig, result.elapsed_seconds
        else:
            assert sig == baseline_sig, f"{label} changed campaign outcomes"
        timings[label] = result.elapsed_seconds
        rows.append([label, result.passes, result.elapsed_seconds,
                     result.elapsed_seconds / baseline_seconds])
    print_table(
        f"SFI campaign wall time: {CAMPAIGN_INJECTIONS} injections, "
        f"tinycore {CAMPAIGN_PROGRAM}",
        ["configuration", "passes", "seconds", "vs 63/pass serial"],
        rows,
    )
    wide = timings["255/pass serial"]
    ratio = wide / baseline_seconds
    bench_json["campaign_matmul_256inj"] = {
        label: round(seconds, 3) for label, seconds in timings.items()
    }
    bench_json["campaign_matmul_256inj"]["wide_vs_seed_ratio"] = round(ratio, 3)
    # The wide batch must beat the seed-era configuration decisively; the
    # seed-vs-now comparison in docs/PERFORMANCE.md additionally folds in
    # the MemState fast-path gains (~3x on top of this within-tree ratio).
    assert ratio < 1.0


def test_bench_smoke(fib_setup, bench_json):
    """CI smoke: one short campaign, seconds."""
    words, dmem, netlist = fib_setup
    golden = run_gate_level(words, dmem, netlist=netlist)
    seqs = extract_graph(netlist.module).seq_nets()
    plans = plan_campaign(seqs, golden.cycles - 2, 60, seed=1)
    result = run_sfi_campaign(
        words, dmem, plans, netlist=netlist, lanes_per_pass=None,
    )
    assert len(result.outcomes) == 60
    bench_json["smoke"] = {
        "seconds": round(result.elapsed_seconds, 3),
        "counts": result.counts(),
    }
    print(f"\nsmoke: 60 injections in "
          f"{result.elapsed_seconds:.2f}s counts={result.counts()}")
