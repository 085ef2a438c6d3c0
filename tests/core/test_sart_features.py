"""SART flow features: loops, control registers, memories, boundaries."""

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.pavf import BOUNDARY, CONST, CTRL, LOOP, READ, WRITE, Atom
from repro.core.resolve import (
    ROLE_CONST,
    ROLE_CTRL,
    ROLE_INPUT,
    ROLE_LOGIC,
    ROLE_LOOP,
    ROLE_MEM,
    ROLE_STRUCT,
)
from repro.core.sart import SartConfig, SetMap, build_plan, run_sart
from repro.errors import MappingError
from repro.netlist import wordlib
from repro.netlist.builder import ModuleBuilder
from repro.netlist.graph import extract_graph


def _loop_design():
    """An FSM loop feeding a downstream pipeline into a structure."""
    b = ModuleBuilder("loopy")
    tie = b.input("tie_in")
    m = b.module
    m.add_net("state")
    n = b.xor_("state", tie)
    b.dff(n, q="state", name="fsm")
    q1 = b.dff("state", name="q1")
    q2 = b.dff(q1, name="q2")
    b.dff(q2, name="sink", attrs={"struct": "SK", "bit": "0"})
    return b.done(), "state", [q1, q2]


class TestLoops:
    def test_loop_node_gets_injected_value(self):
        module, state, _ = _loop_design()
        structs = {"SK": StructurePorts("SK", pavf_r=0.0, pavf_w=1.0, avf=0.3)}
        res = run_sart(module, structs, SartConfig(loop_pavf=0.3))
        assert res.avf(state) == pytest.approx(0.3)
        assert res.node_avfs[state].role == "loop"

    @pytest.mark.parametrize("loop_pavf", [0.0, 0.3, 1.0])
    def test_loop_value_ripples_downstream(self, loop_pavf):
        # "the AVF used for loops could have a ripple effect and propagate
        # into sequentials fed by, but not part of, the loop"
        module, state, pipeline = _loop_design()
        structs = {"SK": StructurePorts("SK", pavf_r=0.0, pavf_w=1.0, avf=0.3)}
        res = run_sart(
            module, structs, SartConfig(loop_pavf=loop_pavf)
        )
        for net in pipeline:
            assert res.avf(net) == pytest.approx(loop_pavf)

    def test_loop_is_backward_sink_too(self):
        # Drivers of a loop node receive its injected value backward.
        b = ModuleBuilder("m")
        tie = b.input("tie_in")
        src = b.dff(tie, name="src", attrs={"struct": "S", "bit": "0"})
        q = b.dff(src, name="q")
        m = b.module
        m.add_net("state")
        n = b.xor_("state", q)
        b.dff(n, q="state", name="fsm")
        structs = {"S": StructurePorts("S", pavf_r=1.0, pavf_w=0.0, avf=0.5)}
        res = run_sart(module := b.done(), structs, SartConfig(loop_pavf=0.25))
        assert res.node_avfs[q].backward == pytest.approx(0.25)
        assert res.avf(q) == pytest.approx(0.25)


class TestControlRegisters:
    def test_ctrl_reg_is_full_avf_source(self):
        b = ModuleBuilder("m")
        tie = b.input("tie_in")
        cfg = b.dff(tie, name="cfg_mode")
        q = b.dff(cfg, name="q")
        b.dff(q, name="snk", attrs={"struct": "SK", "bit": "0"})
        structs = {"SK": StructurePorts("SK", pavf_r=0.0, pavf_w=0.6, avf=0.2)}
        res = run_sart(b.done(), structs)
        assert res.node_avfs[cfg].role == "ctrl"
        assert res.avf(cfg) == 1.0
        # downstream sees pAVF_R = 1.0 forward, 0.6 backward
        assert res.avf(q) == pytest.approx(0.6)

    def test_ctrl_reg_write_walk_omitted(self):
        # The driver of a control register receives nothing backward.
        b = ModuleBuilder("m")
        tie = b.input("tie_in")
        src = b.dff(tie, name="src", attrs={"struct": "S", "bit": "0"})
        stage = b.dff(src, name="stage")
        b.dff(stage, name="cfg_only_consumer")
        structs = {"S": StructurePorts("S", pavf_r=0.9, pavf_w=0.0, avf=0.5)}
        res = run_sart(b.done(), structs)
        # stage's only consumer is the ctrl reg -> backward value is 0
        assert res.node_avfs[stage].backward == 0.0
        assert res.avf(stage) == 0.0


class TestMemoriesAsStructures:
    def _design(self):
        b = ModuleBuilder("m")
        ra = b.input_bus("ra", 2)
        wa = b.input_bus("wa", 2)
        we = b.input("we")
        din = b.input_bus("din", 4)
        stage_in = b.dff_bus(din, name="si")
        rd = b.mem(4, 4, [ra], wa, stage_in, we, name="arr", attrs={"struct": "RF"})[0]
        stage_out = b.dff_bus(rd, name="so")
        for i in range(4):
            b.output(f"y[{i}]")
            b.gate("BUF", [stage_out[i]], out=f"y[{i}]")
        return b.done(), stage_in, stage_out

    def test_mem_ports_source_and_sink(self):
        module, stage_in, stage_out = self._design()
        structs = {"RF": StructurePorts("RF", pavf_r=0.2, pavf_w=0.4, avf=0.35)}
        res = run_sart(module, structs, SartConfig(boundary_out_pavf=1.0))
        for net in stage_in:
            # backward: mem write-port bits carry pAVF_W = 0.4
            assert res.node_avfs[net].backward == pytest.approx(0.4)
        for net in stage_out:
            # forward: mem read-port bits carry pAVF_R = 0.2
            assert res.node_avfs[net].forward == pytest.approx(0.2)
            assert res.avf(net) == pytest.approx(0.2)

    def test_mem_rdata_reported_as_mem_role(self):
        module, _, _ = self._design()
        structs = {"RF": StructurePorts("RF", pavf_r=0.2, pavf_w=0.4, avf=0.35)}
        res = run_sart(module, structs)
        mem_nodes = [n for n in res.node_avfs.values() if n.role == "mem"]
        assert len(mem_nodes) == 4


class TestBoundaries:
    def test_boundary_values_applied(self):
        b = ModuleBuilder("m")
        x = b.input("x")
        q = b.dff(x, name="q")
        b.output("y")
        b.gate("BUF", [q], out="y")
        res = run_sart(
            b.done(),
            None,
            SartConfig(
                boundary_in_pavf=0.11, boundary_out_pavf=0.22
            ),
        )
        assert res.node_avfs[q].forward == pytest.approx(0.11)
        assert res.node_avfs[q].backward == pytest.approx(0.22)
        assert res.avf(q) == pytest.approx(0.11)


class TestDangling:
    def test_unace_mode_zeroes_dead_logic(self):
        b = ModuleBuilder("m")
        tie = b.input("tie_in")
        src = b.dff(tie, name="src", attrs={"struct": "S", "bit": "0"})
        dead = b.dff(src, name="dead")  # consumed by nothing
        structs = {"S": StructurePorts("S", pavf_r=1.0, pavf_w=0.0, avf=0.5)}
        res = run_sart(b.done(), structs, SartConfig(dangling="unace"))
        assert res.avf(dead) == 0.0
        res2 = run_sart(b.done(), structs, SartConfig(dangling="top"))
        assert res2.avf(dead) == 1.0


class TestMapping:
    def test_bad_struct_bit_attr(self):
        b = ModuleBuilder("m")
        x = b.input("x")
        b.dff(x, attrs={"struct": "S", "bit": "banana"})
        g = extract_graph(b.done())
        with pytest.raises(MappingError):
            build_plan(g)

    def test_explicit_binding_works(self):
        # Paper step 4 is decided once, by the plan: one node of every
        # role, its fixed forward, through and sink atoms, and what every
        # structure atom binds to. The compiled engine and the reference
        # engines both read this classification, so the cross-engine
        # oracle cannot see a fault in it.
        b = ModuleBuilder("m")
        x, we = b.input("x"), b.input("we")
        ra0, ra1, wa = b.input_bus("ra0", 1), b.input_bus("ra1", 1), b.input_bus("wa", 1)
        q = b.dff(x, name="q", attrs={"struct": "S", "bit": "3"})
        # Named like a control register, but a structure wins.
        tbl = b.dff(x, name="cfg_table", attrs={"struct": "CFG", "bit": "0"})
        cfg = b.dff(x, name="cfg_mode")
        b.module.add_net("state")
        b.dff(b.xor_("state", x), q="state", name="fsm")
        tie = b.const1()
        wd = [b.buf(q), b.and_(x, tie)]
        rd0, rd1 = b.mem(2, 2, [ra0, ra1], wa, wd, we, name="arr",
                         attrs={"struct": "RF"})
        b.output("y")
        b.gate("OR", [*rd0, *rd1, tbl, cfg, "state"], out="y")
        plan = build_plan(b.done())

        roles = {net: (role, special) for net, role, special
                 in zip(plan.names, plan.role_l, plan.special_l)}
        assert roles[q] == (ROLE_STRUCT, "S")
        assert roles[tbl] == (ROLE_STRUCT, "CFG")
        assert roles[cfg] == (ROLE_CTRL, Atom(CTRL, cfg))
        assert roles["state"] == (ROLE_LOOP, Atom(LOOP, "state"))
        assert roles[tie] == (ROLE_CONST, None)
        assert roles[x] == roles[ra1[0]] == (ROLE_INPUT, None)
        assert all(roles[net] == (ROLE_MEM, None) for net in rd0 + rd1)
        assert roles["y"] == roles[wd[0]] == (ROLE_LOGIC, None)

        fwd, through, sink = (
            {net: set(atoms) for net, atoms in SetMap(plan, ids).items()}
            for ids in (plan.fwd_fixed, plan.through, plan.sink)
        )
        assert fwd == {
            q: {Atom(READ, "S", 3)},
            tbl: {Atom(READ, "CFG", 0)},
            cfg: {Atom(CTRL, cfg)},
            "state": {Atom(LOOP, "state")},
            tie: {Atom(CONST, tie)},
            **{net: {Atom(BOUNDARY, net)} for net in (x, we, *ra0, *ra1, *wa)},
            rd0[0]: {Atom(READ, "RF", 0)},
            rd0[1]: {Atom(READ, "RF", 1)},
            rd1[0]: {Atom(READ, "RF", 2)},
            rd1[1]: {Atom(READ, "RF", 3)},
        }
        assert through == {
            q: {Atom(WRITE, "S", 3)},
            tbl: {Atom(WRITE, "CFG", 0)},
            cfg: set(),
            "state": {Atom(LOOP, "state")},
        }
        assert sink == {
            wd[0]: {Atom(WRITE, "RF", 0)},
            wd[1]: {Atom(WRITE, "RF", 1)},
            ra0[0]: {Atom(READ, "RF#raddr0")},
            ra1[0]: {Atom(READ, "RF#raddr1")},
            wa[0]: {Atom(WRITE, "RF#waddr")},
            we: {Atom(WRITE, "RF#wen")},
            "y": {Atom(BOUNDARY, "y")},
        }
        assert plan.atom_bindings == {
            Atom(READ, "S", 3): ("r", "S", 3),
            Atom(WRITE, "S", 3): ("w", "S", 3),
            Atom(READ, "CFG", 0): ("r", "CFG", 0),
            Atom(WRITE, "CFG", 0): ("w", "CFG", 0),
            **{Atom(READ, "RF", i): ("r", "RF", i) for i in range(4)},
            Atom(READ, "RF#raddr0"): ("ra", "RF", 0),
            Atom(READ, "RF#raddr1"): ("ra", "RF", 1),
            Atom(WRITE, "RF", 0): ("w", "RF", 0),
            Atom(WRITE, "RF", 1): ("w", "RF", 1),
            Atom(WRITE, "RF#waddr"): ("wa", "RF", 0),
            Atom(WRITE, "RF#wen"): ("wen", "RF", 0),
        }
        # Every structure the netlist names gets conservative defaults.
        assert plan.structures == {
            name: StructurePorts(name) for name in ("S", "CFG", "RF")
        }


def test_stats_and_coverage():
    module, _, _ = _loop_design()
    structs = {"SK": StructurePorts("SK", pavf_r=0.0, pavf_w=1.0, avf=0.3)}
    res = run_sart(module, structs)
    assert res.stats["sequentials"] == 4  # fsm, q1, q2, sink
    assert res.stats["loop_bits"] == 1
    assert res.report.visited_fraction > 0.9
    assert res.elapsed_seconds >= 0


class TestBoundaryOverrides:
    def test_per_port_pseudo_structure_values(self):
        b = ModuleBuilder("m")
        a = b.input("bus_in")
        c = b.input("cfg_in")
        qa = b.dff(a, name="qa")
        qc = b.dff(c, name="qc")
        b.output("y")
        b.gate("OR", [qa, qc], out="y")
        res = run_sart(
            b.done(), None,
            SartConfig(
                boundary_in_pavf=1.0,
                boundary_overrides={"bus_in": 0.15, "y": 0.5},
            ),
        )
        assert res.node_avfs[qa].forward == pytest.approx(0.15)
        assert res.node_avfs[qc].forward == pytest.approx(1.0)  # default
        assert res.node_avfs[qa].backward == pytest.approx(0.5)
        assert res.avf(qa) == pytest.approx(0.15)
