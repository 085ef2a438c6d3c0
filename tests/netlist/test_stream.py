"""Streaming EXLIF reader: CsrNetGraph must be extract_graph, verbatim.

``stream_graph`` lowers EXLIF text straight to interned CSR arrays —
no Module, no per-node objects — so every columnar observable (node
order, connectivity, kinds, FUBs, struct tags, memories) and every
lazily materialized ``Node`` view must match what the object path
(``parse_exlif`` → ``extract_graph``) produces for the same bytes.
"""

import pytest

from repro.errors import ExlifParseError, NetlistError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.exlif import parse_exlif, write_exlif
from repro.netlist.graph import NodeKind, extract_graph
from repro.netlist.stream import CsrNetGraph, stream_graph


def _rich_module():
    """One of everything: mem, consts, enabled DFF, struct/ctrl/fub tags,
    variadic gates, multiple outputs."""
    b = ModuleBuilder("rich")
    a, c = b.input("a"), b.input("c")
    en = b.input("en")
    ra = b.input_bus("ra", 2)
    wa = b.input_bus("wa", 2)
    wd = b.input_bus("wd", 3)
    we = b.input("we")
    zero = b.const0(name="z0", attrs={"fub": "MISC"})
    one = b.const1(name="z1", attrs={"fub": "MISC"})
    rdata = b.mem(4, 3, [ra], wa, wd, we, name="arr",
                  attrs={"struct": "MEMS", "fub": "MEMF"})[0]
    g = b.and_(a, c, rdata[0], attrs={"fub": "ALU"})
    h = b.or_(g, zero, one, attrs={"fub": "ALU"})
    q = b.dff(h, en=en, name="hold",
              attrs={"fub": "ALU", "struct": "REGS", "bit": "0"})
    cfg = b.dff(q, name="cfg_mode", attrs={"fub": "ALU"})
    m = b.mux2(q, cfg, a, attrs={"fub": "ALU"})
    b.output(b.buf(m, name="out", attrs={"fub": "ALU"}))
    b.output(rdata[1])
    return b.done()


def _both_graphs(tmp_path):
    module = _rich_module()
    text = write_exlif(module)
    obj = extract_graph(parse_exlif(text)[module.name])
    path = tmp_path / "rich.exlif"
    path.write_text(text)
    csr = stream_graph(path)
    return obj, csr


def _assert_graphs_equal(obj, csr):
    assert isinstance(csr, CsrNetGraph)
    assert list(obj.nodes) == list(csr.nodes)
    o_names, o_ptr, o_ix = obj.csr_connectivity()
    c_names, c_ptr, c_ix = csr.csr_connectivity()
    assert o_names == list(c_names)
    assert list(o_ptr) == list(c_ptr)
    assert list(o_ix) == list(c_ix)
    assert list(obj.kind_column()) == list(csr.kind_column())
    assert list(obj.fub_column()) == list(csr.fub_column())
    assert sorted(obj.struct_tagged()) == sorted(csr.struct_tagged())
    assert sorted(obj.seq_items()) == sorted(csr.seq_items())
    assert sorted(obj.input_nets()) == sorted(csr.input_nets())
    assert sorted(obj.const_nets()) == sorted(csr.const_nets())
    assert obj.outputs == list(csr.outputs)
    assert sorted(obj.seq_nets()) == sorted(csr.seq_nets())
    assert sorted(obj.comb_nets()) == sorted(csr.comb_nets())
    assert obj.nets_by_fub() == csr.nets_by_fub()
    assert {k: sorted(v) for k, v in obj.fanout().items()} == {
        k: sorted(v) for k, v in csr.fanout().items()
    }
    assert obj.mems.keys() == csr.mems.keys()
    for name, info in obj.mems.items():
        got = csr.mems[name]
        assert (info.depth, info.width, info.waddr, info.wdata, info.wen) == (
            got.depth, got.width, got.waddr, got.wdata, got.wen
        )
        assert [(p.addr, p.data) for p in info.read_ports] == [
            (p.addr, p.data) for p in got.read_ports
        ]
    for net, node in obj.nodes.items():
        view = csr.nodes[net]
        assert (node.net, node.kind, node.inst, node.cell, node.fub) == (
            view.net, view.kind, view.inst, view.cell, view.fub
        ), net
        assert node.attrs == view.attrs, net
        assert tuple(node.fanin) == tuple(view.fanin), net


class TestEquivalence:
    def test_rich_module_matches_object_path(self, tmp_path):
        obj, csr = _both_graphs(tmp_path)
        _assert_graphs_equal(obj, csr)

    def test_line_iterable_source(self):
        module = _rich_module()
        text = write_exlif(module)
        obj = extract_graph(parse_exlif(text)[module.name])
        csr = stream_graph(text.splitlines())
        _assert_graphs_equal(obj, csr)

    def test_systolic_solves_identically_through_both_paths(self):
        from repro.core.sart import SartConfig, run_sart
        from repro.designs.bigcore.systolic import (
            SystolicConfig,
            build_systolic,
            systolic_exlif_text,
        )

        cfg = SystolicConfig(rows=3, cols=3, data_width=2, acc_width=4,
                             tile=2)
        module = build_systolic(cfg).module
        csr = stream_graph(systolic_exlif_text(cfg).splitlines())
        _assert_graphs_equal(extract_graph(module), csr)
        sart_cfg = SartConfig()
        assert (
            run_sart(module, config=sart_cfg).node_avfs
            == run_sart(csr, config=sart_cfg).node_avfs
        )

    def test_forward_references_allowed(self):
        # A gate may mention nets driven only later in the file.
        lines = [
            ".model fwd",
            ".inputs a",
            ".gate AND g a0=a a1=later y=g",
            ".latch later d=g q=later init=0",
            ".end",
        ]
        csr = stream_graph(lines)
        assert list(csr.nodes) == ["a", "g", "later"]
        assert tuple(csr.nodes["g"].fanin) == ("a", "later")


class TestErrors:
    def _stream(self, lines):
        return stream_graph(lines)

    def test_undriven_net_rejected(self):
        lines = [".model m", ".inputs a",
                 ".gate AND g a0=a a1=ghost y=g", ".end"]
        with pytest.raises(NetlistError, match="undriven nets.*ghost"):
            self._stream(lines)

    def test_net_driven_twice_rejected(self):
        lines = [".model m", ".inputs a", ".gate BUF g a=a y=g",
                 ".gate NOT g a=a y=g", ".end"]
        with pytest.raises(ExlifParseError, match="driven twice"):
            self._stream(lines)

    def test_subckt_rejected(self):
        lines = [".model m", ".subckt child u1 a=a", ".end"]
        with pytest.raises(ExlifParseError, match="flat module"):
            self._stream(lines)

    def test_second_module_rejected(self):
        lines = [".model m", ".end", ".model n", ".end"]
        with pytest.raises(ExlifParseError, match="single-module"):
            self._stream(lines)

    def test_unterminated_module_rejected(self):
        with pytest.raises(ExlifParseError, match="not terminated"):
            self._stream([".model m", ".inputs a"])

    def test_no_model_rejected(self):
        with pytest.raises(ExlifParseError, match="no .model"):
            self._stream(["# just a comment"])

    def test_unknown_cell_rejected(self):
        lines = [".model m", ".inputs a", ".gate FROB g a=a y=g", ".end"]
        with pytest.raises(ExlifParseError, match="unknown combinational"):
            self._stream(lines)

    def test_latch_missing_q_rejected(self):
        lines = [".model m", ".inputs a", ".latch r d=a init=0", ".end"]
        with pytest.raises(ExlifParseError, match="requires d= and q="):
            self._stream(lines)

    def test_error_carries_line_number(self):
        lines = [".model m", ".inputs a", ".gate FROB g a=a y=g", ".end"]
        with pytest.raises(ExlifParseError) as err:
            self._stream(lines)
        assert err.value.line_number == 3
