"""E8 — node-level accuracy: SART vs SFI ground truth.

The paper validates against silicon at whole-part granularity; tinycore
lets us validate at *node* granularity, which the authors could not
publish. Two properties are checked, both following from the paper's
construction:

* **conservatism** — SART's estimates never sit meaningfully below the
  SFI estimate (the assumptions are all one-sided: no logical masking,
  conservative unions, conservative loop/control injection);
* **discrimination** — SART separates genuinely-low-AVF nodes from
  genuinely-high-AVF nodes (rank correlation with SFI is positive), which
  is what makes it useful for targeting hardened cells.

Loop-boundary nodes are reported separately: at the calibrated loop pAVF
they are a controlled approximation, the paper's acknowledged tradeoff.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.sart import SartConfig, run_sart
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.graph import extract_graph
from repro.ser.correlation import TINYCORE_LOOP_PAVF
from repro.sfi import aggregate_by_node, plan_campaign, run_sfi_campaign

PROGRAM = "lattice2d"
PER_NODE = 40


@pytest.fixture(scope="module")
def data():
    words, dmem = program(PROGRAM), default_dmem(PROGRAM)
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _, _ = tinycore_structure_ports(PROGRAM, words, dmem, gate_cycles=golden.cycles)
    sart = run_sart(netlist.module, ports,
                    SartConfig(loop_pavf=TINYCORE_LOOP_PAVF))
    graph = extract_graph(netlist.module)
    seqs = graph.seq_nets()
    sample = seqs[:: max(1, len(seqs) // 40)][:40]
    plans = plan_campaign(sample, golden.cycles - 2, PER_NODE, per_node=True, seed=31)
    campaign = run_sfi_campaign(words, dmem, plans, netlist=netlist)
    per_node = aggregate_by_node(campaign.outcomes)
    return sart, graph, per_node


def test_bench_accuracy_table(benchmark, data):
    sart, graph, per_node = benchmark.pedantic(lambda: data, rounds=1, iterations=1)
    rows = []
    for net, est in sorted(per_node.items(), key=lambda kv: -kv[1].avf):
        node = sart.node_avfs[net]
        lo, _hi = est.interval()
        rows.append([
            graph.nodes[net].inst, node.role, sart.avf(net), est.avf, lo,
            "OK" if sart.avf(net) >= lo else "UNDER",
        ])
    print_table(
        f"SART vs SFI per-node AVF ({PROGRAM}, {PER_NODE} injections/node)",
        ["flop", "role", "SART", "SFI", "SFI lo95", "conservative"],
        rows[:25] + [["...", "", "", "", "", ""]],
    )


def test_bench_nonloop_conservatism(data):
    sart, graph, per_node = data
    nonloop = {
        net: est for net, est in per_node.items()
        if sart.node_avfs[net].role not in ("loop",)
    }
    ok = sum(1 for net, est in nonloop.items()
             if sart.avf(net) >= est.interval()[0])
    frac = ok / len(nonloop)
    print(f"\nnon-loop nodes conservative: {ok}/{len(nonloop)} ({frac:.0%})")
    assert frac >= 0.85


def test_bench_loop_nodes_reported(data):
    sart, graph, per_node = data
    loops = {net: est for net, est in per_node.items()
             if sart.node_avfs[net].role == "loop"}
    if not loops:
        pytest.skip("sample contains no loop nodes")
    under = sum(1 for net, est in loops.items()
                if sart.avf(net) < est.interval()[0])
    mean_sfi = sum(e.avf for e in loops.values()) / len(loops)
    print(f"\nloop nodes: {len(loops)} sampled, SFI mean AVF {mean_sfi:.2f}, "
          f"injected {TINYCORE_LOOP_PAVF}; below-CI count {under} "
          f"(the paper's acknowledged loop-approximation tradeoff)")


def test_bench_group_discrimination(data):
    """SART-low nodes really are low-AVF; SART-high really are higher.

    The paper's intended use is targeting mitigation at block/path
    granularity ("the law of averages will help smooth out
    perturbations"), so discrimination is evaluated at group level:
    the mean SFI AVF of nodes SART calls low must sit clearly below the
    mean of nodes SART calls high.
    """
    sart, graph, per_node = data
    low = [est.avf for net, est in per_node.items() if sart.avf(net) < 0.2]
    high = [est.avf for net, est in per_node.items() if sart.avf(net) >= 0.2]
    assert low and high
    mean_low = sum(low) / len(low)
    mean_high = sum(high) / len(high)
    print(f"\nSFI ground truth by SART class: "
          f"low group ({len(low)} nodes) mean {mean_low:.3f}, "
          f"high group ({len(high)} nodes) mean {mean_high:.3f}")
    assert mean_low < mean_high * 0.6


def test_bench_spurious_write_blind_spot(data):
    """Documents the one systematic divergence class we observed.

    A fault that fabricates an architectural *write* (e.g. flipping a
    store-enable control bit when no store is in flight) is invisible to
    the ACE-flow model: the write port carries no ACE traffic, yet the
    fault corrupts state. SFI sees it; the analytical model cannot —
    a limit inherited from the paper's no-fault-creation data-rate
    abstraction, recorded here so the numbers stay honest.
    """
    sart, graph, per_node = data
    suspects = [
        net for net in per_node
        if (graph.nodes[net].inst or "").endswith("me_is_st")
    ]
    for net in suspects:
        est = per_node[net]
        print(f"\nspurious-write bit {graph.nodes[net].inst}: "
              f"SART={sart.avf(net):.2f} SFI={est.avf:.2f} "
              f"(divergence expected and documented)")
