"""Gate-level simulator tests: lane parallelism, flops, memories, faults."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netlist import wordlib
from repro.netlist.builder import ModuleBuilder
from repro.rtlsim.levelize import levelize
from repro.rtlsim.simulator import Simulator


def _counter(width=4):
    """Free-running counter: q <= q + 1 each cycle."""
    b = ModuleBuilder("ctr")
    b.input("unused")
    q_nets = [f"q[{i}]" for i in range(width)]
    for n in q_nets:
        b.module.add_net(n)
    nxt = wordlib.increment(b, q_nets)
    for i in range(width):
        b.dff(nxt[i], q=q_nets[i], name=f"ff{i}")
    return b.done(), q_nets


def test_counter_counts():
    module, q = _counter()
    sim = Simulator(module, lanes=3)
    for expected in range(20):
        assert sim.peek_word(q, 0) == expected % 16
        assert sim.peek_word(q, 2) == expected % 16
        sim.step()


def test_dff_init_values():
    b = ModuleBuilder("m")
    x = b.input("x")
    q0 = b.dff(x, init=0)
    q1 = b.dff(x, init=1)
    sim = Simulator(b.done(), lanes=2)
    assert sim.peek(q0) == 0
    assert sim.peek(q1) == 0b11  # init=1 in every lane


def test_enabled_dff_holds():
    b = ModuleBuilder("m")
    d = b.input("d")
    en = b.input("en")
    q = b.dff(d, en=en)
    sim = Simulator(b.done(), lanes=1)
    sim.poke("d", 1)
    sim.poke("en", 0)
    sim.step()
    assert sim.peek(q) == 0  # held
    sim.poke("en", 1)
    sim.step()
    assert sim.peek(q) == 1  # loaded
    sim.poke("d", 0)
    sim.poke("en", 0)
    sim.step()
    assert sim.peek(q) == 1  # held again


def test_lanes_are_independent_after_flip():
    module, q = _counter()
    sim = Simulator(module, lanes=4)
    sim.step(3)
    sim.flip(q[0], 0b0100)  # lane 2 only
    assert sim.peek_word(q, 0) == 3
    assert sim.peek_word(q, 2) == 2
    sim.step()
    assert sim.peek_word(q, 0) == 4
    assert sim.peek_word(q, 2) == 3
    assert sim.lanes_differing_from(0) == {2}


def test_reset_restores_everything():
    module, q = _counter()
    sim = Simulator(module, lanes=2)
    sim.step(7)
    sim.flip(q[1], 0b10)
    sim.reset()
    assert sim.cycle == 0
    assert sim.peek_word(q, 0) == 0
    assert sim.peek_word(q, 1) == 0
    assert sim.lanes_differing_from(0) == set()


class TestMemory:
    def _mem_module(self):
        b = ModuleBuilder("m")
        ra = b.input_bus("ra", 3)
        wa = b.input_bus("wa", 3)
        wd = b.input_bus("wd", 8)
        we = b.input("we")
        rd = b.mem(8, 8, [ra], wa, wd, we, name="arr", init=[10, 20, 30])[0]
        for i in range(8):
            b.output(f"rd[{i}]")
            b.gate("BUF", [rd[i]], out=f"rd[{i}]")
        return b.done(), ra, wa, wd

    def test_init_and_write_read(self):
        module, ra, wa, wd = self._mem_module()
        sim = Simulator(module, lanes=2)
        rd = [f"rd[{i}]" for i in range(8)]
        sim.poke_word(ra, 1)
        assert sim.peek_word(rd, 0) == 20
        sim.poke_word(wa, 5)
        sim.poke_word(wd, 99)
        sim.poke_all_lanes("we", 1)
        sim.step()
        sim.poke_all_lanes("we", 0)
        sim.poke_word(ra, 5)
        assert sim.peek_word(rd, 0) == 99
        assert sim.peek_word(rd, 1) == 99

    def test_diverged_lane_write(self):
        module, ra, wa, wd = self._mem_module()
        sim = Simulator(module, lanes=2)
        rd = [f"rd[{i}]" for i in range(8)]
        # lane 1 writes different data than lane 0 at the same address
        sim.poke_word(wa, 3)
        sim.poke("wd[0]", 0b01)  # lane0: bit0=1, lane1: bit0=0
        for net in wd[1:]:
            sim.poke(net, 0)
        sim.poke_all_lanes("we", 1)
        sim.step()
        sim.poke_all_lanes("we", 0)
        sim.poke_word(ra, 3)
        assert sim.peek_word(rd, 0) == 1
        assert sim.peek_word(rd, 1) == 0
        assert sim.lanes_differing_from(0) == {1}
        # converge again: both lanes write the same value
        sim.poke_word(wd, 42)
        sim.poke_word(wa, 3)
        sim.poke_all_lanes("we", 1)
        sim.step()
        assert sim.lanes_differing_from(0) == set()

    def test_diverged_address_read(self):
        module, ra, wa, wd = self._mem_module()
        sim = Simulator(module, lanes=2)
        rd = [f"rd[{i}]" for i in range(8)]
        # lane0 reads addr 0 (10), lane1 reads addr 1 (20)
        sim.poke("ra[0]", 0b10)
        sim.poke("ra[1]", 0)
        sim.poke("ra[2]", 0)
        assert sim.peek_word(rd, 0) == 10
        assert sim.peek_word(rd, 1) == 20


def test_combinational_cycle_raises():
    b = ModuleBuilder("m")
    a = b.input("a")
    b.module.add_net("n2")
    b.gate("AND", [a, "n2"], out="n1")
    b.gate("BUF", ["n1"], out="n2")
    with pytest.raises(SimulationError, match="cycle"):
        Simulator(b.done())


def test_levelize_orders_dependencies():
    b = ModuleBuilder("m")
    a = b.input("a")
    n1 = b.gate("NOT", [a])
    n2 = b.gate("AND", [a, n1])
    b.gate("OR", [n2, n1])
    order = [inst.name for kind, inst, _ in levelize(b.done())]
    assert order.index(order[0]) == 0
    produced = set()
    module = b.done()
    for kind, inst, _ in levelize(module):
        for pin in inst.input_pins():
            net = inst.conn[pin]
            assert net in produced or net in module.input_ports()
        for pin in inst.output_pins():
            produced.add(inst.conn[pin])


@settings(max_examples=25)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(1, 5))
def test_pipeline_delays_data(x, z, depth):
    b = ModuleBuilder("m")
    a = b.input_bus("a", 8)
    cur = a
    for _ in range(depth):
        cur = b.dff_bus(cur)
    sim = Simulator(b.done(), lanes=1)
    sim.poke_word(a, x)
    sim.step(depth)
    sim.poke_word(a, z)
    assert sim.peek_word(cur, 0) == x
    sim.step(depth)
    assert sim.peek_word(cur, 0) == z
