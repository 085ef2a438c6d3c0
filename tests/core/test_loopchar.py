"""Loop characterization (solution 2) tests."""

import pytest

from repro.core.loopchar import (
    characterize_loops,
    measure_activity,
    summarize_rates,
    tinycore_loop_rates,
)
from repro.core.sart import SartConfig, run_sart
from repro.errors import SartError
from repro.netlist import wordlib
from repro.netlist.builder import ModuleBuilder
from repro.rtlsim.simulator import Simulator


def _counter_module(width=3):
    b = ModuleBuilder("ctr")
    b.input("unused")
    q = [f"q[{i}]" for i in range(width)]
    for n in q:
        b.module.add_net(n)
    nxt = wordlib.increment(b, q)
    for i in range(width):
        b.dff(nxt[i], q=q[i], name=f"ff{i}")
    return b.done(), q


def test_measure_activity_counter():
    module, q = _counter_module()
    sim = Simulator(module)
    rates = measure_activity(sim, q, cycles=64)
    # Bit 0 toggles every cycle, bit 1 every 2nd, bit 2 every 4th.
    assert rates[q[0]] == pytest.approx(1.0)
    assert rates[q[1]] == pytest.approx(0.5)
    assert rates[q[2]] == pytest.approx(0.25)


def test_measure_activity_validates_cycles():
    module, q = _counter_module()
    sim = Simulator(module)
    with pytest.raises(SartError):
        measure_activity(sim, q, cycles=0)


def test_characterize_applies_floor():
    b = ModuleBuilder("still")
    x = b.input("x")
    m = b.module
    m.add_net("s")
    n = b.and_("s", x)
    b.dff(n, q="s")  # stays 0 forever with x=0
    sim = Simulator(b.done())
    rates = characterize_loops(sim, ["s"], cycles=32, floor=0.05)
    assert rates["s"] == 0.05


def test_per_net_overrides_flow_into_sart():
    from repro.core.graphmodel import StructurePorts

    b = ModuleBuilder("m")
    tie = b.input("tie_in")
    m = b.module
    m.add_net("state")
    n = b.xor_("state", tie)
    b.dff(n, q="state", name="fsm")
    q = b.dff("state", name="down")
    b.dff(q, name="snk", attrs={"struct": "S", "bit": "0"})
    structs = {"S": StructurePorts("S", pavf_r=0.0, pavf_w=1.0, avf=0.3)}
    res = run_sart(
        b.done(), structs,
        SartConfig(loop_pavf=0.3,
                   loop_pavf_per_net={"state": 0.77}),
    )
    assert res.avf("state") == pytest.approx(0.77)
    assert res.avf(q) == pytest.approx(0.77)  # ripples downstream


def test_tinycore_rates_shape():
    from repro.designs.tinycore.programs import default_dmem, program

    words, dmem = program("fib"), default_dmem("fib")
    # A tiny set of known loop nets: the PC bits toggle constantly.
    from repro.designs.tinycore.core import build_tinycore
    from repro.netlist.graph import extract_graph

    netlist = build_tinycore(words, dmem)
    g = extract_graph(netlist.module)
    pc = [n for n in g.seq_nets() if (g.nodes[n].inst or "").startswith("pc_r")]
    rates = tinycore_loop_rates(words, dmem, pc)
    assert set(rates) == set(pc)
    assert max(rates.values()) > 0.3  # pc[0] toggles most cycles
    stats = summarize_rates(rates)
    assert stats["count"] == len(pc)
    assert 0.0 < stats["mean"] <= 1.0


def test_summarize_empty():
    assert summarize_rates({}) == {"count": 0, "mean": 0.0, "p50": 0.0, "max": 0.0}
