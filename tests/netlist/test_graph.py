"""Node-graph extraction tests."""

import pytest

from repro.errors import NetlistError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.graph import NodeKind, extract_graph
from tests.conftest import make_fig7


def test_kinds_and_fanin():
    module, nets = make_fig7()
    g = extract_graph(module)
    assert g.nodes[nets["q1a"]].kind == NodeKind.SEQ
    assert g.nodes[nets["g1"]].kind == NodeKind.COMB
    assert g.nodes["tie_in"].kind == NodeKind.INPUT
    assert set(g.nodes[nets["g1"]].fanin) == {nets["q1a"], nets["q1b"]}
    assert g.nodes[nets["q3a"]].fanin == (nets["g2"],)
    assert set(g.outputs) == {"out", "out2"}


def test_fanout_is_inverse_of_fanin():
    module, nets = make_fig7()
    g = extract_graph(module)
    fo = g.fanout()
    assert set(fo[nets["q1a"]]) == {nets["g1"], nets["q2a"]}
    assert set(fo[nets["g1"]]) == {nets["q3b"], nets["g2"]}


def test_enabled_dff_gets_hold_self_edge():
    b = ModuleBuilder("m")
    d = b.input("d")
    en = b.input("en")
    q = b.dff(d, en=en, name="r")
    g = extract_graph(b.done())
    assert set(g.nodes[q].fanin) == {d, en, q}


def test_mem_extraction():
    b = ModuleBuilder("m")
    ra = b.input_bus("ra", 2)
    wa = b.input_bus("wa", 2)
    wd = b.input_bus("wd", 3)
    we = b.input("we")
    rdata = b.mem(4, 3, [ra], wa, wd, we, name="arr", attrs={"struct": "S"})[0]
    g = extract_graph(b.done())
    info = g.mems["arr"]
    assert info.width == 3 and info.depth == 4
    assert info.read_ports[0].data == rdata
    assert info.read_ports[0].addr == ra
    assert info.waddr == wa and info.wdata == wd and info.wen == we
    for net in rdata:
        assert g.nodes[net].kind == NodeKind.MEM_RDATA
        assert g.nodes[net].fanin == ()


def test_seq_and_comb_listings():
    module, nets = make_fig7()
    g = extract_graph(module)
    seqs = set(g.seq_nets())
    assert nets["q1a"] in seqs and nets["g1"] not in seqs
    assert g.nodes[nets["g1"]].kind == NodeKind.COMB
    assert g.nodes[nets["g2"]].kind == NodeKind.COMB


def test_fub_grouping():
    b = ModuleBuilder("m", default_attrs={"fub": "A"})
    x = b.input("x")
    q = b.dff(x)
    b.dff(q, attrs={"fub": "B"})
    g = extract_graph(b.done())
    assert g.fubs[g.ids[q]] == "A"
    assert g.fubs.count("B") == 1


def test_nonflat_module_rejected():
    b = ModuleBuilder("m")
    x = b.input("x")
    b.subckt("child", {"a": x}, name="u")
    with pytest.raises(NetlistError, match="flat"):
        extract_graph(b.done())


def test_undriven_reference_rejected():
    b = ModuleBuilder("m")
    b.module.add_net("ghost")
    b.gate("BUF", ["ghost"], out="y")
    with pytest.raises(NetlistError, match="undriven"):
        extract_graph(b.done())
