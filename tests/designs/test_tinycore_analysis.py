"""tinycore as an analysis target: structures, ports, SART integration."""

import pytest

from repro.core.resolve import ROLE_LOOP
from repro.core.sart import build_plan, run_sart
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.graph import extract_graph
from repro.verify.reference import run_relaxation


@pytest.fixture(scope="module")
def lattice():
    words, dmem = program("lattice2d"), default_dmem("lattice2d")
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, trace, sim = tinycore_structure_ports(
        "lattice2d", words, dmem, gate_cycles=golden.cycles
    )
    return netlist, golden, ports, trace


def test_structures_present(lattice):
    netlist, _, ports, _ = lattice
    g = extract_graph(netlist.module)
    assert {"u_rf", "u_dmem", "u_irom"} <= set(g.mems)
    assert {"rf", "dmem", "irom"} <= set(ports)


def test_port_values_sane(lattice):
    _, golden, ports, trace = lattice
    rf = ports["rf"]
    assert 0.1 < rf.pavf_r <= 1.0        # register traffic is heavy
    assert 0.1 < rf.pavf_w <= 1.0
    assert 0.2 < rf.avf <= 1.0           # registers are latency-dominated
    assert ports["irom"].pavf_w == 0.0   # ROM is never written
    assert ports["dmem"].avf < rf.avf    # sparse memory use


def test_sart_on_tinycore(lattice):
    netlist, _, ports, _ = lattice
    res = run_sart(netlist.module, ports)
    assert res.stats["sequentials"] == 233
    assert res.report.visited_fraction > 0.95
    # Every resolved AVF is a probability.
    for node in res.node_avfs.values():
        assert 0.0 <= node.avf <= 1.0
    # Sequential average sits between "nothing matters" and the RF proxy.
    assert 0.05 < res.report.weighted_seq_avf < ports["rf"].avf


def test_loops_are_the_pipeline_control_web(lattice):
    netlist, _, ports, _ = lattice
    res = run_sart(netlist.module, ports)
    loops = [n.net for n in res.node_avfs.values() if n.role == ROLE_LOOP]
    # tinycore is loop-dominated (bypass/stall/PC SCC) — the documented
    # contrast with the paper's 2-3 % design.
    assert len(loops) > 100
    g = res.plan.graph
    pc_flops = [n for n in loops if (g.nodes[n].inst or "").startswith("pc_r")]
    assert len(pc_flops) == 10


def test_fub_partitioned_matches_monolithic(lattice):
    netlist, _, ports, _ = lattice
    plan = build_plan(netlist.module, ports)
    part = run_relaxation(plan)
    assert part.trace.converged
    assert part.node_avfs == run_sart(plan=plan).node_avfs


def test_dead_store_path_has_zero_avf():
    # md5mix never stores: the store-data pipeline ends at a write port
    # with pAVF_W = 0, so SART resolves those flops to 0.
    words, dmem = program("md5mix"), default_dmem("md5mix")
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _, _ = tinycore_structure_ports("md5mix", words, dmem, gate_cycles=golden.cycles)
    res = run_sart(netlist.module, ports)
    st_data = [
        net for net, node in res.plan.graph.nodes.items()
        if (node.inst or "").startswith("me_st_data")
    ]
    assert st_data
    assert all(res.avf(net) == 0.0 for net in st_data)
