"""Ablation — the paper's three loop-handling solutions (Section 4.3).

The paper lists three ways to handle loop-boundary nodes and picks
solution 3; this bench compares all the implementable ones against SFI
ground truth on tinycore (the loop-heavy design, where the choice
matters most):

* solution 2 — per-node pass rates measured from one golden RTL run
  (:mod:`repro.core.loopchar`);
* solution 3 — a single static injected value, at the paper's 0.3, at
  the tinycore-calibrated 0.45, and at the fully conservative 1.0.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.loopchar import summarize_rates, tinycore_loop_rates
from repro.core.report import average_seq_avf
from repro.core.resolve import ROLE_LOOP
from repro.core.sart import SartConfig, run_sart
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.graph import extract_graph
from repro.sfi import overall_avf, plan_campaign, run_sfi_campaign

PROGRAM = "lattice2d"


@pytest.fixture(scope="module")
def setup():
    words, dmem = program(PROGRAM), default_dmem(PROGRAM)
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _, _ = tinycore_structure_ports(PROGRAM, words, dmem, gate_cycles=golden.cycles)
    return words, dmem, netlist, golden, ports


def test_bench_loop_solutions(benchmark, setup):
    words, dmem, netlist, golden, ports = setup

    base = run_sart(netlist.module, ports)
    loop_nets = [n.net for n in base.node_avfs.values() if n.role == ROLE_LOOP]

    def characterize():
        return tinycore_loop_rates(words, dmem, loop_nets)

    rates = benchmark.pedantic(characterize, rounds=1, iterations=1)
    stats = summarize_rates(rates)
    print(f"\nsolution-2 characterization: {int(stats['count'])} loop nodes, "
          f"pass-rate mean {stats['mean']:.2f}, median {stats['p50']:.2f}, "
          f"max {stats['max']:.2f}")

    variants = {
        "solution 3 @ 0.3 (paper)": SartConfig(loop_pavf=0.3),
        "solution 3 @ 0.45 (calibrated)": SartConfig(loop_pavf=0.45),
        "solution 3 @ 1.0 (conservative)": SartConfig(loop_pavf=1.0),
        "solution 2 (measured rates)": SartConfig(
            loop_pavf_per_net=rates
        ),
    }

    seqs = extract_graph(netlist.module).seq_nets()
    plans = plan_campaign(seqs, golden.cycles - 2, 378, seed=41)
    campaign = run_sfi_campaign(words, dmem, plans, netlist=netlist)
    sfi_avf, (lo, hi) = overall_avf(campaign.outcomes)

    rows = []
    for label, config in variants.items():
        result = run_sart(netlist.module, ports, config)
        avg = average_seq_avf(result.node_avfs)
        rows.append([label, avg, avg - sfi_avf,
                     "conservative" if avg >= lo else "below-CI"])
    rows.append(["SFI ground truth", sfi_avf, 0.0, f"CI [{lo:.3f},{hi:.3f}]"])
    print_table(
        f"Loop-handling solutions vs SFI ({PROGRAM}, design-average)",
        ["variant", "avg seq AVF", "vs SFI", "verdict"],
        rows,
    )

    avg_paper = average_seq_avf(
        run_sart(netlist.module, ports, SartConfig(loop_pavf=0.3)).node_avfs
    )
    avg_cons = average_seq_avf(
        run_sart(netlist.module, ports, SartConfig(loop_pavf=1.0)).node_avfs
    )
    avg_meas = average_seq_avf(
        run_sart(netlist.module, ports,
                 SartConfig(loop_pavf_per_net=rates)).node_avfs
    )
    # The fully conservative static value bounds SFI from above; the
    # measured rates produce the tightest (lowest) estimate. On a
    # loop-dominated design the data-rate interpretation (solution 2)
    # under-weighs control importance — visible here, worth knowing.
    assert avg_cons >= hi
    assert avg_meas < avg_paper < avg_cons
