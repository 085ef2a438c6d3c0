"""E7 — the speed claim: analytical SART vs brute-force SFI.

"A processor with 100,000 sequentials running a 10,000 cycle simulation
would require 1,000,000 RTL simulations to inject into every potential
fault for complete coverage" — while SART "generates AVFs for each and
every functional sequential in the entire design in a single run."

We measure, on tinycore: the wall time of one SART run (all 233
sequentials resolved) vs an SFI campaign sized for comparable per-node
confidence, then report the extrapolated full-coverage cost ratio. The
ratio test writes its quantities to ``BENCH_simulator.json`` under
``speed_vs_sfi``. A faster SFI lowers the ratio: the campaign is the
honest baseline, so it is as fast as this simulator can run it.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.core.sart import run_sart
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.graph import extract_graph
from repro.sfi import plan_campaign, run_sfi_campaign

PROGRAM = "lattice2d"
INJECTIONS_PER_NODE = 30  # for a useful per-node Wilson interval


@pytest.fixture(scope="module")
def setup():
    words, dmem = program(PROGRAM), default_dmem(PROGRAM)
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _, _ = tinycore_structure_ports(PROGRAM, words, dmem, gate_cycles=golden.cycles)
    return words, dmem, netlist, golden, ports


def test_bench_sart_single_run(benchmark, setup):
    words, dmem, netlist, golden, ports = setup
    result = benchmark(lambda: run_sart(netlist.module, ports))
    assert result.stats["sequentials"] == 233


def test_bench_speed_ratio(setup, bench_json):
    words, dmem, netlist, golden, ports = setup
    seqs = extract_graph(netlist.module).seq_nets()

    started = time.perf_counter()
    sart = run_sart(netlist.module, ports)
    sart_seconds = time.perf_counter() - started

    # SFI over a 12-node sample, then extrapolate to all nodes.
    sample = seqs[:: max(1, len(seqs) // 12)][:12]
    plans = plan_campaign(sample, golden.cycles - 2, INJECTIONS_PER_NODE,
                          per_node=True, seed=23)
    campaign = run_sfi_campaign(words, dmem, plans, netlist=netlist)
    sfi_sample_seconds = campaign.elapsed_seconds
    sfi_full_seconds = sfi_sample_seconds * len(seqs) / len(sample)

    ratio = sfi_full_seconds / max(sart_seconds, 1e-9)
    print_table(
        "SART vs SFI cost for whole-design per-node AVFs (lattice2d)",
        ["method", "nodes covered", "injections", "seconds"],
        [
            ["SART (one run)", len(seqs), 0, sart_seconds],
            [f"SFI sample ({len(sample)} nodes)", len(sample),
             len(plans), sfi_sample_seconds],
            ["SFI extrapolated (all nodes)", len(seqs),
             INJECTIONS_PER_NODE * len(seqs), sfi_full_seconds],
        ],
    )
    bench_json["speed_vs_sfi"] = {
        "program": PROGRAM,
        "sequentials": len(seqs),
        "sart_seconds": round(sart_seconds, 4),
        "sfi_sample_nodes": len(sample),
        "sfi_sample_injections": len(plans),
        "sfi_sample_seconds": round(sfi_sample_seconds, 3),
        "sfi_full_injections": INJECTIONS_PER_NODE * len(seqs),
        "sfi_full_seconds": round(sfi_full_seconds, 2),
        "ratio": round(ratio, 1),
    }
    print(f"speedup: {ratio:,.0f}x for one workload "
          f"(paper: 3-4 orders of magnitude on a real core; grows with "
          f"design size and workload count — SART is one graph solve, SFI "
          f"re-simulates per injection)")
    assert ratio > 20  # tinycore is tiny; the gap widens with scale


def test_bench_speed_scales_with_design(bigcore_design, bigcore_ports):
    """SART wall time on the 7.8k-flop bigcore stays in seconds; SFI's
    simulation count would scale as nodes x cycles x workloads."""
    started = time.perf_counter()
    result = run_sart(bigcore_design.module, bigcore_ports)
    elapsed = time.perf_counter() - started
    seqs = int(result.stats["sequentials"])
    print(f"\nbigcore: {seqs} sequentials resolved in {elapsed:.2f}s "
          f"({seqs / elapsed:,.0f} nodes/s); equivalent full-coverage SFI at "
          f"30 injections/node would be {30 * seqs:,} RTL simulations")
    assert elapsed < 60
