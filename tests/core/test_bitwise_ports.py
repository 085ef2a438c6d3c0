"""Per-bit structure port AVFs (vector pavf_r/pavf_w) through SART."""

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartConfig, run_sart
from repro.netlist.builder import ModuleBuilder

CFG = SartConfig()


def _vector_design(width=4):
    """A source array whose bits feed independent pipelines into a sink."""
    b = ModuleBuilder("vec")
    tie = b.input("tie_in")
    stages = []
    for i in range(width):
        q = b.dff(tie, name=f"src[{i}]", attrs={"struct": "SRC", "bit": str(i)})
        stage = b.dff(q, name=f"st[{i}]")
        b.dff(stage, name=f"snk[{i}]", attrs={"struct": "SNK", "bit": str(i)})
        stages.append(stage)
    return b.done(), stages


def test_per_bit_read_values():
    module, stages = _vector_design()
    structs = {
        "SRC": StructurePorts("SRC", pavf_r=[0.1, 0.2, 0.3, 0.4], pavf_w=0.0, avf=0.5),
        "SNK": StructurePorts("SNK", pavf_r=0.0, pavf_w=1.0, avf=0.5),
    }
    res = run_sart(module, structs, CFG)
    for i, net in enumerate(stages):
        assert res.node_avfs[net].forward == pytest.approx(0.1 * (i + 1))
        assert res.avf(net) == pytest.approx(0.1 * (i + 1))


def test_per_bit_write_values():
    module, stages = _vector_design()
    structs = {
        "SRC": StructurePorts("SRC", pavf_r=1.0, pavf_w=0.0, avf=0.5),
        "SNK": StructurePorts("SNK", pavf_r=0.0, pavf_w=[0.4, 0.3, 0.2, 0.1], avf=0.5),
    }
    res = run_sart(module, structs, CFG)
    for i, net in enumerate(stages):
        assert res.node_avfs[net].backward == pytest.approx(0.4 - 0.1 * i)


def test_short_vector_repeats_last():
    ports = StructurePorts("S", pavf_r=[0.1, 0.9])
    assert ports.read_value(0) == 0.1
    assert ports.read_value(1) == 0.9
    assert ports.read_value(7) == 0.9  # beyond the list: last value


def test_port_rates_from_vectors():
    ports = StructurePorts("S", pavf_r=[0.1, 0.5], pavf_w=[0.2, 0.05])
    assert ports.read_port_rate() == 0.5   # conservative max
    assert ports.write_port_rate() == 0.2


def test_mem_per_bit_ports():
    """Per-bit values apply to MEM read-data bits via the flat index."""
    b = ModuleBuilder("m")
    ra = b.input_bus("ra", 1)
    wa = b.input_bus("wa", 1)
    wd = b.input_bus("wd", 2)
    we = b.input("we")
    rd = b.mem(2, 2, [ra], wa, wd, we, name="arr", attrs={"struct": "A"})[0]
    q0 = b.dff(rd[0], name="q0")
    q1 = b.dff(rd[1], name="q1")
    b.dff(q0, name="k0", attrs={"struct": "K", "bit": "0"})
    b.dff(q1, name="k1", attrs={"struct": "K", "bit": "1"})
    structs = {
        "A": StructurePorts("A", pavf_r=[0.11, 0.33], pavf_w=0.0, avf=0.5),
        "K": StructurePorts("K", pavf_r=0.0, pavf_w=1.0, avf=0.5),
    }
    res = run_sart(b.done(), structs, CFG)
    assert res.avf(q0) == pytest.approx(0.11)
    assert res.avf(q1) == pytest.approx(0.33)
