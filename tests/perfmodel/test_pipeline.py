"""Pipeline behaviour: throughput, stalls, structure events, determinism."""

import pytest

from repro.errors import TraceError
from repro.perfmodel.isa import Inst
from repro.perfmodel.machine import MachineConfig, run_workload
from repro.perfmodel.pipeline import Pipeline
from repro.perfmodel.trace import Trace, mark_ace
from repro.workloads.generator import WorkloadSpec, generate_trace


def _alu_chain(n, serial: bool) -> Trace:
    insts = []
    for i in range(n):
        srcs = (1,) if serial else ()
        insts.append(Inst(seq=i, op="alu", dst=1 if serial else i % 8, srcs=srcs))
    t = Trace("chain", insts)
    t.validate()
    return t


def test_requires_marked_trace():
    t = _alu_chain(10, serial=False)
    with pytest.raises(TraceError, match="ACE-marked"):
        Pipeline(t, MachineConfig())


def test_all_instructions_commit():
    t = mark_ace(_alu_chain(500, serial=False))
    res = run_workload(t)
    assert res.stats.committed == 500
    assert res.cycles > 0


def test_serial_chain_is_slower_than_parallel():
    serial = run_workload(mark_ace(_alu_chain(400, serial=True)))
    parallel = run_workload(mark_ace(_alu_chain(400, serial=False)))
    assert serial.ipc < parallel.ipc
    assert parallel.ipc > 1.5  # 4-wide machine on independent ALU ops


def test_memory_misses_slow_execution():
    spec = WorkloadSpec(name="m", length=3000, frac_load=0.5, frac_alu=0.4,
                        frac_store=0.05, frac_branch=0.05, frac_nop=0, frac_prefetch=0)
    trace = generate_trace(spec)
    fast = run_workload(trace, MachineConfig(miss_rate=0.0))
    trace2 = generate_trace(spec)
    slow = run_workload(trace2, MachineConfig(miss_rate=0.5, miss_latency=40))
    assert slow.cycles > fast.cycles * 1.3


def test_mispredicts_cost_cycles():
    spec = WorkloadSpec(name="b", length=3000, frac_branch=0.3, frac_alu=0.6,
                        frac_load=0.05, frac_store=0.05, frac_nop=0, frac_prefetch=0,
                        mispredict_rate=0.0)
    clean = run_workload(generate_trace(spec))
    spec_bad = WorkloadSpec(name="b2", length=3000, frac_branch=0.3, frac_alu=0.6,
                            frac_load=0.05, frac_store=0.05, frac_nop=0, frac_prefetch=0,
                            mispredict_rate=0.3, seed=spec.seed)
    dirty = run_workload(generate_trace(spec_bad))
    assert dirty.cycles > clean.cycles
    assert dirty.stats.mispredict_bubbles > 0


def test_determinism():
    spec = WorkloadSpec(name="d", length=2000, seed=42)
    a = run_workload(generate_trace(spec))
    b = run_workload(generate_trace(spec))
    assert a.cycles == b.cycles
    assert a.structures["rob"].ace_bit_cycles == b.structures["rob"].ace_bit_cycles


def test_narrow_machine_is_slower():
    t = generate_trace(WorkloadSpec(name="w", length=3000))
    wide = run_workload(t, MachineConfig())
    t2 = generate_trace(WorkloadSpec(name="w", length=3000))
    narrow = run_workload(
        t2,
        MachineConfig(fetch_width=1, dispatch_width=1, issue_width=1, commit_width=1),
    )
    assert narrow.cycles > wide.cycles * 1.5


def test_structure_events_balance():
    """Every structure ends the run with no leaked entries except the
    architectural register file (live-out state)."""
    t = generate_trace(WorkloadSpec(name="bal", length=2000))
    res = run_workload(t)
    rob = res.structures["rob"]
    assert rob.total_writes == 2000
    assert rob.total_reads == 2000
    iq = res.structures["inst_queue"]
    assert iq.total_writes == iq.total_reads == 2000
    fb = res.structures["fetch_buffer"]
    # Wrong-path placeholders add un-ACE writes that are never read.
    assert fb.total_reads == 2000
    assert fb.total_writes == 2000 + res.stats.wrong_path_fetched


def test_occupancy_tracked():
    t = generate_trace(WorkloadSpec(name="occ", length=2000))
    res = run_workload(t)
    assert 0 < res.occupancy["rob"] <= 64
    assert res.occupancy["fetch_buffer"] > 0


def test_rob_full_backpressure():
    # A long-latency head-of-ROB op must fill the ROB behind it.
    insts = [Inst(seq=0, op="load", dst=1, srcs=(), addr=3)]
    for i in range(1, 200):
        insts.append(Inst(seq=i, op="alu", dst=2 + (i % 4), srcs=(1,)))
    t = Trace("backpressure", insts)
    t.validate()
    res = run_workload(t, MachineConfig(miss_rate=1.0, miss_latency=100, rob_entries=16))
    assert res.stats.dispatch_stall_cycles > 0


def test_wrong_path_traffic_is_unace():
    spec = WorkloadSpec(name="wp", length=3000, frac_branch=0.25, frac_alu=0.55,
                        frac_load=0.1, frac_store=0.1, frac_nop=0, frac_prefetch=0,
                        mispredict_rate=0.2)
    on = run_workload(generate_trace(spec), MachineConfig(model_wrong_path=True))
    off = run_workload(generate_trace(spec), MachineConfig(model_wrong_path=False))
    assert on.stats.wrong_path_fetched > 0
    assert off.stats.wrong_path_fetched == 0
    fb_on = on.structures["fetch_buffer"]
    fb_off = off.structures["fetch_buffer"]
    # Wrong-path entries carry no ACE bits: ACE counters are unchanged...
    assert fb_on.ace_writes == fb_off.ace_writes
    # ...while raw write traffic grows by exactly the wrong-path count.
    assert fb_on.total_writes == fb_off.total_writes + on.stats.wrong_path_fetched
    # Squashed-unconsumed entries contribute zero ACE residency.
    assert fb_on.ace_bit_cycles == fb_off.ace_bit_cycles


def test_store_buffer_head_of_line_no_deadlock():
    """Regression: SB entries must allocate at dispatch (program order).

    With issue-time allocation, younger ready stores could consume every
    store-buffer entry while the ROB-head store waited on a slow
    producer; in-order commit could then never drain the SB and the
    machine deadlocked. Found by hypothesis on a store-heavy,
    serial-dependence workload.
    """
    spec = WorkloadSpec(
        name="sbdead", length=400, seed=34,
        frac_alu=0.2, frac_load=0.246, frac_store=0.246,
        frac_branch=0.054, frac_nop=0.07,
        dep_distance=1, dead_fraction=0.395, mispredict_rate=0.136,
    )
    res = run_workload(generate_trace(spec), MachineConfig(max_cycles=100_000))
    assert res.stats.committed == 400
    sb = res.structures["store_buffer"]
    assert sb.total_writes == sb.total_reads  # every store drained
