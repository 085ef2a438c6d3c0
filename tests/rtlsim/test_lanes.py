"""Lane isolation: every lane of a wide pass equals its own 1-lane run.

Lanes share one simulator pass (bit ``k`` of every net value is lane
``k``) but must never interact. These tests drive a wide simulator with
per-lane pokes and flips at awkward lane widths — 1, 63, 64 (one machine
word exactly), 65 (first word spill) and 256 — and require each lane's
``peek``/``seq_state``/memory contents, and the wide
``lanes_differing_from`` verdict, to equal what 1-lane runs given only
that lane's inputs and flips produce. A 1-lane run never takes
``MemState``'s divergence paths, so it is an independent reference for
the per-lane overlay code.
"""

import random

import pytest

from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import GateLevelRun, run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.errors import CampaignError, SimulationError
from repro.netlist import wordlib
from repro.netlist.builder import ModuleBuilder
from repro.rtlsim.simulator import MAX_LANES, Simulator

LANE_WIDTHS = (1, 63, 64, 65, 256)


def _counter(width=4):
    b = ModuleBuilder("ctr")
    b.input("unused")
    q_nets = [f"q[{i}]" for i in range(width)]
    for n in q_nets:
        b.module.add_net(n)
    nxt = wordlib.increment(b, q_nets)
    for i in range(width):
        b.dff(nxt[i], q=q_nets[i], name=f"ff{i}")
    return b.done(), q_nets


def _mem_module():
    b = ModuleBuilder("m")
    ra = b.input_bus("ra", 3)
    wa = b.input_bus("wa", 3)
    wd = b.input_bus("wd", 8)
    b.input("we")
    rd = b.mem(8, 8, [ra], wa, wd, "we", name="arr", init=[10, 20, 30])[0]
    for i in range(8):
        b.output(f"rd[{i}]")
        b.gate("BUF", [rd[i]], out=f"rd[{i}]")
    return b.done(), ra, wa, wd


def _mixed_logic_module():
    """Exercise every cell kind the code generator special-cases."""
    b = ModuleBuilder("mix")
    a, c, s = b.input("a"), b.input("c"), b.input("s")
    n = b.gate("NOT", [a])
    x1 = b.gate("AND", [a, c])
    x2 = b.gate("NAND", [a, c, n])
    x3 = b.gate("OR", [x1, x2])
    x4 = b.gate("NOR", [x3, c])
    x5 = b.gate("XOR", [x4, a])
    x6 = b.gate("XNOR", [x5, c])
    x7 = b.gate("MUX2", [x6, x2, s])
    q = b.dff(x7, name="qff")
    b.dff(q, en=s, name="qen")
    return b.done(), [x1, x2, x3, x4, x5, x6, x7, q]


class _Lanes:
    """A wide simulator plus one 1-lane reference simulator per lane."""

    def __init__(self, module, lanes):
        self.wide = Simulator(module, lanes=lanes)
        self.singles = [Simulator(module, lanes=1) for _ in range(lanes)]

    def poke(self, net, value):
        self.wide.poke(net, value)
        for lane, sim in enumerate(self.singles):
            sim.poke(net, (value >> lane) & 1)

    def flip(self, net, mask):
        self.wide.flip(net, mask)
        for lane, sim in enumerate(self.singles):
            if (mask >> lane) & 1:
                sim.flip(net, 1)

    def step(self):
        for sim in (self.wide, *self.singles):
            sim.step()

    def assert_isolated(self, nets):
        wide = self.wide
        for net in nets:
            want = 0
            for lane, sim in enumerate(self.singles):
                want |= sim.peek(net) << lane
            assert wide.peek(net) == want, net
        states = [(sim.seq_state(0), _mem_image(sim, 0)) for sim in self.singles]
        for lane, (flops, mems) in enumerate(states):
            assert wide.seq_state(lane) == flops, lane
            assert _mem_image(wide, lane) == mems, lane
        diverged = {lane for lane, state in enumerate(states) if state != states[0]}
        assert wide.lanes_differing_from(0) == diverged


def _mem_image(sim, lane):
    return {name: tuple(mem.lane_word(lane, addr) for addr in range(mem.depth))
            for name, mem in sim.mems.items()}


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
def test_counter_equivalence_with_flips(lanes):
    module, q = _counter()
    sims = _Lanes(module, lanes)
    rng = random.Random(lanes)
    for cyc in range(12):
        if cyc in (3, 7):
            sims.flip(q[rng.randrange(len(q))], rng.getrandbits(lanes))
        sims.assert_isolated(q)
        sims.step()


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
def test_mixed_gates_equivalence(lanes):
    module, nets = _mixed_logic_module()
    sims = _Lanes(module, lanes)
    rng = random.Random(lanes * 7 + 1)
    for _ in range(8):
        for name in ("a", "c", "s"):
            sims.poke(name, rng.getrandbits(lanes))
        sims.assert_isolated(nets)
        sims.step()
    sims.assert_isolated(nets)


@pytest.mark.parametrize("lanes", LANE_WIDTHS)
def test_memory_equivalence_diverged_lanes(lanes):
    module, ra, wa, wd = _mem_module()
    rd = [f"rd[{i}]" for i in range(8)]
    sims = _Lanes(module, lanes)
    rng = random.Random(lanes * 13 + 5)
    for _ in range(10):
        # Per-lane-divergent addresses, data and write enables.
        for nets in (ra, wa, wd):
            for net in nets:
                sims.poke(net, rng.getrandbits(lanes))
        sims.poke("we", rng.getrandbits(lanes))
        sims.assert_isolated(rd)
        sims.step()
    sims.assert_isolated(rd)
    # A direct array strike lands in its own lane only.
    sims.wide.mems["arr"].flip_bit(lanes - 1, 2, 5)
    sims.singles[-1].mems["arr"].flip_bit(0, 2, 5)
    sims.assert_isolated(rd)


@pytest.mark.parametrize("lanes", (1, 65, 256))
def test_tinycore_program_equivalence(lanes):
    words, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(words, dmem)
    nets = sorted(netlist.module.nets)
    rng = random.Random(lanes)
    flips = [(rng.randrange(40), rng.choice(nets), rng.getrandbits(lanes))
             for _ in range(6)]

    def on_cycle(sim, cycle):
        for cyc, net, mask in flips:
            if cyc == cycle:
                sim.flip(net, mask)

    wide = run_gate_level(words, dmem, netlist=netlist,
                          sim=Simulator(netlist.module, lanes=lanes),
                          on_cycle=on_cycle)
    # Lanes with the same flips share one 1-lane reference run.
    single = Simulator(netlist.module, lanes=1)
    references = {}
    for lane in range(lanes):
        mine = tuple((cyc, net) for cyc, net, mask in flips if (mask >> lane) & 1)
        if mine not in references:
            references[mine] = _reference(single, netlist, wide.cycles, mine)
        outputs, halted, arch, flops = references[mine]
        assert wide.outputs[lane] == outputs, lane
        assert (lane in wide.halted_lanes) == halted, lane
        assert wide.architectural_state(lane) == arch, lane
        assert wide.sim.seq_state(lane) == flops, lane


def _reference(sim, netlist, cycles, flips):
    """A 1-lane run of *flips*, observed as ``run_gate_level`` observes.

    It steps exactly *cycles* cycles, the wide run's length, because a
    faulty lane need not halt when the golden lane does.
    """
    sim.reset()
    outputs, halted = [], set()
    for cycle in range(cycles + 1):
        if sim.peek(netlist.out_valid):
            outputs.append(sim.peek_word(netlist.out_val, 0))
        if sim.peek(netlist.halted):
            halted.add(0)
        if cycle == cycles:
            break
        for cyc, net in flips:
            if cyc == cycle:
                sim.flip(net, 1)
        sim.step()
    run = GateLevelRun(netlist, sim, cycles, {0: outputs}, halted)
    return outputs, 0 in halted, run.architectural_state(0), sim.seq_state(0)


class TestLimits:
    def test_lane_cap_enforced(self):
        module, _ = _counter()
        with pytest.raises(SimulationError, match="cap"):
            Simulator(module, lanes=MAX_LANES + 1)

    def test_batch_width_validated(self):
        from repro.sfi.campaign import FaultPlan, batches

        plans = [FaultPlan("x", 1)] * 10
        assert [len(b) for b in batches(plans, 4)] == [4, 4, 2]
        with pytest.raises(CampaignError, match="at least one fault lane"):
            batches(plans, 0)
        with pytest.raises(CampaignError, match="per-pass cap"):
            batches(plans, MAX_LANES + 7)
        # None resolves to the default width.
        assert [len(b) for b in batches([FaultPlan("x", 1)] * 100,
                                        None)] == [63, 37]
