"""Loop detection (Section 4.3) and control-register identification (5.1)."""

import pytest

from repro.core.controlregs import find_control_registers
from repro.core.graphmodel import build_model
from repro.core.loops import find_loop_nets
from repro.errors import SartError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.graph import GraphBuilder, NodeKind, extract_graph
from repro.pipeline.registry import resolve_design


def _fsm_module():
    """A 2-bit FSM: state feeds back through next-state logic."""
    b = ModuleBuilder("fsm")
    go = b.input("go")
    m = b.module
    m.add_net("s0")
    m.add_net("s1")
    n0 = b.xor_("s0", go)
    n1 = b.and_("s0", "s1")
    b.dff(n0, q="s0", name="st0")
    b.dff(n1, q="s1", name="st1")
    q = b.dff("s1", name="down")  # downstream of the loop, not in it
    b.output("y")
    b.gate("BUF", [q], out="y")
    return b.done()


def test_fsm_loop_detected():
    g = extract_graph(_fsm_module())
    loops = find_loop_nets(g, set())
    assert "s0" in loops
    # s1's feedback goes through s0? n1 = AND(s0, s1): s1 -> n1 -> s1. Yes.
    assert "s1" in loops
    # the downstream flop is NOT part of the loop
    down = [n for n in g.seq_nets() if n not in ("s0", "s1")]
    assert all(n not in loops for n in down)


def test_enabled_flop_is_a_loop():
    # The hold path of an enabled flop makes it a self-loop, which the
    # paper treats as structure-like state (held > 1 cycle).
    b = ModuleBuilder("m")
    d = b.input("d")
    en = b.input("en")
    q = b.dff(d, en=en)
    g = extract_graph(b.done())
    assert find_loop_nets(g, set()) == {q}


def test_cut_enabled_flop_is_not_a_loop():
    # A latch-array bit holds through its enable too, but walks stop at
    # structure bits: cut there, its self edge is not a loop.
    b = ModuleBuilder("m")
    d = b.input("d")
    en = b.input("en")
    q = b.dff(d, en=en, attrs={"struct": "ARR", "bit": "0"})
    p = b.dff(d, en=en)
    g = extract_graph(b.done())
    assert find_loop_nets(g, {q}) == {p}
    model = build_model(g, None)
    assert q in model.struct_nodes and model.loop_nets == {p}


def test_combinational_cycle_raises():
    gb = GraphBuilder("cyc")
    gb.add_node("x", NodeKind.INPUT)
    gb.add_node("a", NodeKind.COMB, fanin=("x", "b"))
    gb.add_node("b", NodeKind.COMB, fanin=("a",))
    with pytest.raises(SartError, match="combinational cycle"):
        find_loop_nets(gb.finish(), set())


def test_plain_pipeline_has_no_loops():
    b = ModuleBuilder("m")
    x = b.input("x")
    q = b.dff(x)
    b.dff(q)
    g = extract_graph(b.done())
    assert find_loop_nets(g, set()) == set()


def test_counter_loop():
    # A pointer-update loop (counter) is the paper's canonical example.
    from repro.netlist import wordlib

    b = ModuleBuilder("ctr")
    b.input("unused")
    q_nets = [f"q[{i}]" for i in range(3)]
    for n in q_nets:
        b.module.add_net(n)
    nxt = wordlib.increment(b, q_nets)
    for i in range(3):
        b.dff(nxt[i], q=q_nets[i], name=f"ff{i}")
    g = extract_graph(b.done())
    loops = find_loop_nets(g, set())
    assert set(q_nets) <= loops


@pytest.mark.parametrize("ref, counts", [
    ("tinycore:fib", (160, 0)),
    ("bigcore@scale=0.3", (56, 36)),
    ("systolic@rows=4,cols=4", (256, 1)),
])
def test_model_loop_and_ctrl_counts(ref, counts):
    # build_model is the one front end: these counts pin its loop finder
    # and control-register rule on each built-in design family.
    model = build_model(extract_graph(resolve_design(ref).build().module))
    assert (len(model.loop_nets), len(model.ctrl_nets)) == counts


class TestControlRegs:
    def test_attr_identification(self):
        b = ModuleBuilder("m")
        x = b.input("x")
        q = b.dff(x, attrs={"ctrlreg": "1"})
        p = b.dff(x)
        g = extract_graph(b.done())
        found = find_control_registers(g)
        assert q in found and p not in found

    def test_name_pattern_identification(self):
        b = ModuleBuilder("m")
        x = b.input("x")
        q1 = b.dff(x, name="u_csr/mode")
        q2 = b.dff(x, name="cfg_width[3]")
        q3 = b.dff(x, name="decfgx")  # should NOT match (no boundary)
        q4 = b.dff(x, name="datapath/stage2")
        g = extract_graph(b.done())
        found = find_control_registers(g)
        assert q1 in found and q2 in found
        assert q3 not in found and q4 not in found

    def test_exclusion_wins(self):
        # A latch array named like a config register stays a structure.
        b = ModuleBuilder("m")
        x = b.input("x")
        q = b.dff(x, name="cfg_table", attrs={"struct": "CFG", "bit": "0"})
        g = extract_graph(b.done())
        assert q in find_control_registers(g)
        model = build_model(g, None)
        assert q in model.struct_nodes and q not in model.ctrl_nets
