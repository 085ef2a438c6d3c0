"""Quantized (windowed) AVF tests."""

import random

import pytest

from repro.ace.quantized import TeeRecorder, WindowedPortCounter, quantized_seq_avf
from repro.core.graphmodel import StructurePorts
from repro.core.report import average_seq_avf
from repro.core.sart import SartConfig, run_sart
from repro.errors import AceError
from repro.netlist.builder import ModuleBuilder


class TestWindowedCounter:
    def test_counts_land_in_right_windows(self):
        c = WindowedPortCounter(window=10)
        c.register("s")
        c.on_read("s", 0, cycle=3, ace=True)
        c.on_read("s", 0, cycle=9, ace=True)
        c.on_read("s", 0, cycle=10, ace=True)   # second window
        c.on_read("s", 0, cycle=25, ace=False)  # un-ACE: ignored
        c.on_write("s", 0, cycle=15, ace=True, ace_bits=None, bits=8)
        tables = c.window_ports(total_cycles=30)
        assert len(tables) == 3
        assert tables[0]["s"].pavf_r == pytest.approx(2 / 10)
        assert tables[1]["s"].pavf_r == pytest.approx(1 / 10)
        assert tables[1]["s"].pavf_w == pytest.approx(1 / 10)
        assert tables[2]["s"].pavf_r == 0.0

    def test_partial_tail_window_normalized(self):
        c = WindowedPortCounter(window=10)
        c.register("s")
        c.on_read("s", 0, cycle=22, ace=True)
        tables = c.window_ports(total_cycles=24)
        assert tables[2]["s"].pavf_r == pytest.approx(1 / 4)  # 4-cycle tail

    def test_port_normalization(self):
        c = WindowedPortCounter(window=10)
        c.register("s", nread=2)
        for cycle in range(10):
            c.on_read("s", 0, cycle, ace=True)
        tables = c.window_ports(total_cycles=10)
        assert tables[0]["s"].pavf_r == pytest.approx(0.5)

    def test_bad_window_rejected(self):
        with pytest.raises(AceError):
            WindowedPortCounter(window=0)


def test_tee_recorder_fans_out():
    a = WindowedPortCounter(window=5)
    b = WindowedPortCounter(window=5)
    a.register("s")
    b.register("s")
    tee = TeeRecorder(a, b, None)
    tee.on_read("s", 0, 1, True)
    tee.on_write("s", 0, 2, True, None, 8)
    tee.on_release("s", 0, 3, True)
    for counter in (a, b):
        t = counter.window_ports(5)
        assert t[0]["s"].pavf_r > 0 and t[0]["s"].pavf_w > 0


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
    result = run_sart(b.done(), base_ports, SartConfig(partition_by_fub=False))
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

    cfg = SartConfig(partition_by_fub=False)
    closed = run_sart(module, ports(0), cfg).closed_form()
    windows = [ports(seed) for seed in range(1, 9)]
    assert quantized_seq_avf(closed, windows) == [
        average_seq_avf(run_sart(module, table, cfg).node_avfs) for table in windows
    ]


def test_end_to_end_windowed_perfmodel():
    """Windowed counting alongside the normal lifetime analysis."""
    from repro.ace.lifetime import AceLifetimeAnalyzer
    from repro.perfmodel.pipeline import Pipeline, PipelineConfig
    from repro.perfmodel.trace import mark_ace
    from repro.workloads.generator import WorkloadSpec, generate_trace

    trace = mark_ace(generate_trace(WorkloadSpec(name="q", length=3000)))
    lifetime = AceLifetimeAnalyzer()
    windows = WindowedPortCounter(window=200)
    pipeline = Pipeline(trace, PipelineConfig(), recorder=TeeRecorder(lifetime, windows))
    for s in pipeline.structures:
        lifetime.register(s.name, s.entries, s.bits_per_entry, s.nread, s.nwrite)
        windows.register(s.name, s.nread, s.nwrite)
    stats = pipeline.run()
    lifetime.finish(stats.cycles)
    tables = windows.window_ports(stats.cycles)
    assert len(tables) == -(-stats.cycles // 200)
    # Aggregate of windowed ACE reads equals the lifetime analyzer's count.
    total_reads = sum(
        t["rob"].pavf_r * min(200, stats.cycles - i * 200) * lifetime.structures["rob"].nread
        for i, t in enumerate(tables)
    )
    assert total_reads == pytest.approx(lifetime.structures["rob"].ace_reads, abs=1.0)
