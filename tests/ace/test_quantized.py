"""Quantized (windowed) AVF tests."""

import random

import pytest

from repro.ace.lifetime import StructureLifetime
from repro.ace.quantized import WindowedPortCounter, quantized_seq_avf, run_windowed
from repro.core.graphmodel import StructurePorts
from repro.core.report import average_seq_avf
from repro.core.sart import SartConfig, run_sart
from repro.errors import AceError
from repro.netlist.builder import ModuleBuilder


class TestWindowedCounter:
    def test_counts_land_in_right_windows(self):
        c = WindowedPortCounter(StructureLifetime("s", 1, 8), window=10)
        c.write(0, cycle=0, ace=True)
        c.read(0, cycle=3, ace=True)
        c.read(0, cycle=9, ace=True)
        c.read(0, cycle=10, ace=True)   # second window
        c.write(0, cycle=15, ace=True)
        c.read(0, cycle=25, ace=False)  # un-ACE: ignored
        tables = c.window_ports(total_cycles=30)
        assert len(tables) == 3
        assert tables[0].pavf_r == pytest.approx(2 / 10)
        assert tables[0].pavf_w == pytest.approx(1 / 10)
        assert tables[1].pavf_r == pytest.approx(1 / 10)
        assert tables[1].pavf_w == pytest.approx(1 / 10)
        assert tables[2].pavf_r == 0.0

    def test_partial_tail_window_normalized(self):
        c = WindowedPortCounter(StructureLifetime("s", 1, 8), window=10)
        c.write(0, cycle=0, ace=True)
        c.read(0, cycle=22, ace=True)
        tables = c.window_ports(total_cycles=24)
        assert tables[2].pavf_r == pytest.approx(1 / 4)  # 4-cycle tail

    def test_port_normalization(self):
        c = WindowedPortCounter(StructureLifetime("s", 1, 8, nread=2), window=10)
        c.write(0, 0, ace=True)
        for cycle in range(10):
            c.read(0, cycle, ace=True)
        tables = c.window_ports(total_cycles=10)
        assert tables[0].pavf_r == pytest.approx(0.5)

    def test_bit_field_weighting(self):
        # 3 of 10 bits ACE: the window reads the whole run's bit-weighted
        # rates (Section 5.1), not the plain event rates.
        lifetime = StructureLifetime("s", 1, 10)
        c = WindowedPortCounter(lifetime, window=10)
        c.write(0, 0, ace=True, ace_bits=3)
        c.read(0, 4, ace=True)
        c.release(0, 6, consumed=True)
        [window] = c.window_ports(total_cycles=10)
        stats = lifetime.finish(10)
        assert window.pavf_r == pytest.approx(3 / (10 * 10))
        assert window.pavf_w == pytest.approx(3 / (10 * 10))
        assert window.pavf_r == stats.pavf_r_bitwise()
        assert window.pavf_w == stats.pavf_w_bitwise()
        assert stats.ace_bit_cycles == 4 * 3  # events reached the lifetime

    def test_bad_window_rejected(self):
        with pytest.raises(AceError):
            WindowedPortCounter(StructureLifetime("s", 1, 8), window=0)


def test_quantized_time_series_through_closed_form():
    # A pipeline between two structures: windowed port AVFs in, per-window
    # sequential AVF out, with no re-walk.
    b = ModuleBuilder("m")
    tie = b.input("tie_in")
    src = b.dff(tie, name="src", attrs={"struct": "S", "bit": "0"})
    stage = b.dff(src, name="stage")
    b.dff(stage, name="snk", attrs={"struct": "K", "bit": "0"})
    base_ports = {
        "S": StructurePorts("S", pavf_r=0.5, pavf_w=0.0, avf=0.5),
        "K": StructurePorts("K", pavf_r=0.0, pavf_w=1.0, avf=0.5),
    }
    result = run_sart(b.done(), base_ports)
    closed = result.closed_form()

    windows = [
        {"S": StructurePorts("S", pavf_r=r, pavf_w=0.0),
         "K": StructurePorts("K", pavf_r=0.0, pavf_w=1.0)}
        for r in (0.1, 0.9, 0.0)
    ]
    series = quantized_seq_avf(closed, windows)
    assert series == pytest.approx([0.1, 0.9, 0.0])


def test_quantized_series_equals_per_window_solves():
    # Pipeline stages behind wide joins of source structures, so each
    # stage's AVF is a sum of several atoms: the series must be each
    # window's fresh solve exactly, rounding included.
    rng = random.Random(3)
    b = ModuleBuilder("joins")
    tie = b.input("tie_in")
    srcs = [b.dff(tie, name=f"s{i}", attrs={"struct": f"S{i}", "bit": "0"})
            for i in range(8)]
    for j in range(12):
        stage = b.dff(b.or_(*rng.sample(srcs, rng.randint(3, 8))), name=f"p{j}")
        b.dff(stage, name=f"k{j}", attrs={"struct": f"K{j}", "bit": "0"})
    module = b.done()

    def ports(seed):
        rng = random.Random(seed)
        table = {f"S{i}": StructurePorts(f"S{i}", pavf_r=rng.uniform(0.0, 0.2), pavf_w=0.0)
                 for i in range(8)}
        table.update({f"K{j}": StructurePorts(f"K{j}", pavf_r=0.0, pavf_w=1.0)
                      for j in range(12)})
        return table

    cfg = SartConfig()
    closed = run_sart(module, ports(0), cfg).closed_form()
    windows = [ports(seed) for seed in range(1, 9)]
    assert quantized_seq_avf(closed, windows) == [
        average_seq_avf(run_sart(module, table, cfg).node_avfs) for table in windows
    ]


def test_end_to_end_windowed_perfmodel():
    """Windowing leaves the whole run's counters as they are, and each
    structure's window ports add up to its whole-run bit sums."""
    from repro.perfmodel.machine import run_workload
    from repro.perfmodel.trace import mark_ace
    from repro.workloads.generator import WorkloadSpec, generate_trace

    trace = mark_ace(generate_trace(WorkloadSpec(name="q", length=3000)))
    structures, tables = run_windowed(trace, 200)
    assert structures == run_workload(trace).structures
    cycles = structures["rob"].cycles
    spans = [min(200, cycles - i * 200) for i in range(-(-cycles // 200))]
    assert len(tables) == len(spans)
    for name, stats in structures.items():
        scale = [span * stats.bits_per_entry for span in spans]
        read_bits = sum(t[name].pavf_r * k * stats.nread for t, k in zip(tables, scale))
        write_bits = sum(t[name].pavf_w * k * stats.nwrite for t, k in zip(tables, scale))
        assert read_bits == pytest.approx(stats.ace_read_bitsum), name
        assert write_bits == pytest.approx(stats.ace_write_bitsum), name
