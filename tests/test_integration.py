"""Cross-package integration tests: full flows through serialized formats."""

import pytest

from repro.core.sart import run_sart
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.exlif import parse_exlif, write_exlif
from repro.netlist.graph import extract_graph


@pytest.fixture(scope="module")
def flow():
    words, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _, _ = tinycore_structure_ports("fib", words, dmem, gate_cycles=golden.cycles)
    return netlist, ports


def test_exlif_roundtrip_preserves_sart_results(flow):
    """Serialize tinycore to EXLIF, parse it back, re-run SART: identical."""
    netlist, ports = flow
    direct = run_sart(netlist.module, ports)

    text = write_exlif(netlist.module)
    reparsed = parse_exlif(text)["tinycore"]
    roundtrip = run_sart(reparsed, ports)

    assert set(direct.node_avfs) == set(roundtrip.node_avfs)
    for net in direct.node_avfs:
        assert roundtrip.avf(net) == pytest.approx(direct.avf(net)), net
    assert roundtrip.report.weighted_seq_avf == pytest.approx(
        direct.report.weighted_seq_avf
    )


def test_exlif_roundtrip_preserves_simulation(flow):
    """The reparsed netlist executes the program identically."""
    netlist, _ = flow
    words, dmem = program("fib"), default_dmem("fib")
    reparsed = parse_exlif(write_exlif(netlist.module))["tinycore"]

    from repro.rtlsim.simulator import Simulator

    a = Simulator(netlist.module, lanes=1)
    b = Simulator(reparsed, lanes=1)
    for _ in range(120):
        assert a.peek("out_valid_o") == b.peek("out_valid_o")
        assert a.peek_word([f"out_val_o[{i}]" for i in range(16)], 0) == \
            b.peek_word([f"out_val_o[{i}]" for i in range(16)], 0)
        a.step()
        b.step()


def test_graph_extraction_stable_across_roundtrip(flow):
    netlist, _ = flow
    g1 = extract_graph(netlist.module)
    g2 = extract_graph(parse_exlif(write_exlif(netlist.module))["tinycore"])
    assert set(g1.nodes) == set(g2.nodes)
    assert set(g1.mems) == set(g2.mems)
    for net, node in g1.nodes.items():
        assert g2.nodes[net].fanin == node.fanin
        assert g2.nodes[net].fub == node.fub


def test_simulator_chunking_boundary():
    """A module with more gates than one codegen chunk still simulates."""
    from repro.netlist.builder import ModuleBuilder
    from repro.rtlsim.simulator import _CHUNK, Simulator

    b = ModuleBuilder("wide")
    x = b.input("x")
    cur = x
    n_gates = _CHUNK + 500
    for i in range(n_gates):
        cur = b.gate("NOT", [cur])
    b.output("y")
    b.gate("BUF", [cur], out="y")
    sim = Simulator(b.done(), lanes=2)
    sim.poke_all_lanes("x", 1)
    expected = 1 if n_gates % 2 == 0 else 0
    assert sim.peek_lane("y", 0) == expected
    sim.poke_all_lanes("x", 0)
    assert sim.peek_lane("y", 0) == 1 - expected
    assert len(sim._comb_fns) >= 2  # chunking actually engaged


def test_tinycore_traces_run_on_the_ooo_model():
    """Trace portability: a tinycore program's dynamic trace feeds the
    out-of-order performance model directly — the same ACE machinery
    serves both the 5-stage core and the OoO model."""
    from repro.designs.tinycore.archsim import trace_from_program
    from repro.perfmodel.machine import run_workload

    words, dmem = program("lattice2d"), default_dmem("lattice2d")
    trace, arch = trace_from_program("lattice2d", words, dmem)
    result = run_workload(trace)
    assert result.stats.committed == len(trace)
    # The OoO model (4-wide) beats the 5-stage scalar core's CPI.
    assert result.ipc > 0.9
    for stats in result.structures.values():
        assert 0.0 <= stats.avf() <= 1.0
