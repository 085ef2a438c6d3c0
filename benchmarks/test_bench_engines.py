"""Ablation — walk engine vs dataflow fixpoint engine.

Two reference engines implement the propagation semantics the compiled
engine runs: the faithful walk mechanics of Section 4.1 and a
single-pass topological fixpoint (both under :mod:`repro.verify`). This
bench pins their equivalence on a real design and measures the speed
difference (the reason the fixpoint, not the walk, became the basis of
the compiled engine).
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.core.sart import SartConfig
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.verify.reference import run_reference

# dangling="top" matches the walk engine's unvisited-stays-conservative
# behaviour (the dataflow default refines dead logic to AVF 0).
DATAFLOW_CFG = SartConfig(dangling="top")
WALK_CFG = SartConfig()


@pytest.fixture(scope="module")
def setup():
    words, dmem = program("md5mix"), default_dmem("md5mix")
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _, _ = tinycore_structure_ports("md5mix", words, dmem, gate_cycles=golden.cycles)
    return netlist, ports


def test_bench_dataflow_engine(benchmark, setup):
    netlist, ports = setup
    benchmark(lambda: run_reference(netlist.module, ports, DATAFLOW_CFG))


def test_bench_walk_engine(benchmark, setup):
    netlist, ports = setup
    benchmark.pedantic(
        lambda: run_reference(netlist.module, ports, WALK_CFG, engine="walk"),
        rounds=2, iterations=1,
    )


def test_bench_engines_equivalent(setup):
    netlist, ports = setup
    df = run_reference(netlist.module, ports, DATAFLOW_CFG)
    wk = run_reference(netlist.module, ports, WALK_CFG, engine="walk")

    t0 = time.perf_counter()
    run_reference(netlist.module, ports, DATAFLOW_CFG)
    df_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_reference(netlist.module, ports, WALK_CFG, engine="walk")
    wk_s = time.perf_counter() - t0

    diffs = [net for net in df.node_avfs
             if abs(df.avf(net) - wk.avf(net)) > 1e-9]
    print_table(
        "Engine ablation (tinycore, md5mix)",
        ["engine", "seconds", "rounds", "mismatching nodes"],
        [
            ["dataflow fixpoint", df_s, 1, len(diffs)],
            ["faithful walks", wk_s, int(wk.stats["walker_rounds"]), len(diffs)],
        ],
    )
    assert not diffs, diffs[:5]
    assert df_s < wk_s
