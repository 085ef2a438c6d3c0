"""E1 — Table 1 / Figures 1-7: the propagation rules, validated twice.

First analytically (the resolved AVFs must equal Table 1's closed forms),
then empirically: per-node SFI on a gate-level realization of each
canonical topology must be bounded by the SART estimate, confirming the
rules are conservative where the paper claims they are.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.graphmodel import StructurePorts
from repro.core.resolve import ROLE_LOOP, ROLE_STRUCT
from repro.core.sart import SartConfig, run_sart
from repro.netlist.builder import ModuleBuilder

CFG = SartConfig()


def _structs(**kv):
    return {
        name: StructurePorts(name, pavf_r=r, pavf_w=w, avf=0.5)
        for name, (r, w) in kv.items()
    }


def _fig7_module():
    b = ModuleBuilder("fig7")
    tie = b.input("tie_in")
    s1 = b.dff(tie, name="s1", attrs={"struct": "S1", "bit": "0"})
    s2 = b.dff(tie, name="s2", attrs={"struct": "S2", "bit": "0"})
    q1a = b.dff(s1, name="q1a")
    q2a = b.dff(q1a, name="q2a")
    q1b = b.dff(s2, name="q1b")
    g1 = b.or_(q1a, q1b, name="g1")
    q3b = b.dff(g1, name="q3b")
    g2 = b.and_(q2a, g1, name="g2")
    q3a = b.dff(g2, name="q3a")
    b.dff(q3a, name="s3", attrs={"struct": "S3", "bit": "0"})
    b.dff(q3b, name="s4", attrs={"struct": "S4", "bit": "0"})
    return b.done(), dict(q1a=q1a, q2a=q2a, q1b=q1b, g1=g1, g2=g2, q3a=q3a, q3b=q3b)


def test_bench_table1_closed_forms(benchmark):
    """Reproduce every row of Table 1 and the Figure 7 walkthrough."""
    r1, r2, w3, w4 = 0.10, 0.02, 0.05, 0.40

    def run():
        module, nets = _fig7_module()
        structs = _structs(S1=(r1, 0.0), S2=(r2, 0.0), S3=(0.0, w3), S4=(0.0, w4))
        return run_sart(module, structs, CFG), nets

    result, nets = benchmark(run)

    rows = []
    expected = {
        # Figure 7 forward values after the idempotent-union step.
        "q1a": (r1, min(r1, result.node_avfs[nets["q1a"]].backward)),
        "q1b": (r2, None),
        "g1": (r1 + r2, None),
        "g2": (r1 + r2, None),  # union is idempotent: NOT 0.22
        "q3a": (r1 + r2, None),
        "q3b": (r1 + r2, None),
    }
    for label, (fwd, _) in expected.items():
        node = result.node_avfs[nets[label]]
        rows.append([label, fwd, node.forward, node.backward, node.avf])
        assert node.forward == pytest.approx(fwd), label
    print_table(
        "Table 1 / Figure 7 — resolved pAVF values",
        ["node", "paper fwd", "fwd", "bwd", "final AVF=MIN"],
        rows,
    )
    # Table 1 row checks (MIN reconciliation).
    assert result.avf(nets["q3a"]) == pytest.approx(min(r1 + r2, w3))
    assert result.avf(nets["q3b"]) == pytest.approx(min(r1 + r2, w4))
    assert result.avf(nets["q2a"]) == pytest.approx(min(r1, w3))


def test_bench_rules_conservative_vs_sfi(benchmark):
    """SFI on a gate-level join/split fabric stays below SART estimates.

    We build a small *executable* circuit shaped like the paper's
    topologies (a data pipeline joining two sources, splitting into two
    sinks) inside tinycore's benchmark programs, then compare SART's AVFs
    for its datapath flops against per-node SFI. SART must be
    conservative for the non-loop datapath nodes.
    """
    from repro.designs.tinycore.archsim import tinycore_structure_ports
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.harness import run_gate_level
    from repro.designs.tinycore.programs import default_dmem, program
    from repro.netlist.graph import extract_graph
    from repro.sfi import aggregate_by_node, plan_campaign, run_sfi_campaign

    name = "fib"
    words, dmem = program(name), default_dmem(name)
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _, _ = tinycore_structure_ports(name, words, dmem, gate_cycles=golden.cycles)
    sart = run_sart(netlist.module, ports, SartConfig(loop_pavf=1.0))

    graph = extract_graph(netlist.module)
    # Non-loop pipeline flops only: the pure Table 1 regime.
    pipe_nets = [
        n for n in graph.seq_nets()
        if sart.node_avfs[n].role not in (ROLE_LOOP, ROLE_STRUCT)
    ]

    def campaign():
        plans = plan_campaign(pipe_nets, golden.cycles - 2, 30, per_node=True, seed=17)
        return run_sfi_campaign(words, dmem, plans, netlist=netlist)

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    per_node = aggregate_by_node(result.outcomes)

    rows, conservative = [], 0
    for net, est in sorted(per_node.items()):
        lo, hi = est.interval()
        ok = sart.avf(net) >= lo
        conservative += ok
        rows.append([graph.nodes[net].inst, sart.avf(net), est.avf, lo, "OK" if ok else "UNDER"])
    print_table(
        "Table 1 rules vs per-node SFI (non-loop pipeline flops, fib)",
        ["flop", "SART", "SFI", "SFI lo95", "conservative"],
        rows,
    )
    frac = conservative / len(per_node)
    print(f"conservative for {conservative}/{len(per_node)} nodes ({frac:.0%})")
    assert frac >= 0.85
