"""Ablation — per-FUB relaxation vs one monolithic solve.

The paper partitions "to better fit available computing resources or to
parallelize the task" and accepts iteration-to-convergence in exchange.
This bench pins that the relaxation lands on the monolithic fixpoint —
every node record and every set, not only the values — and compares
their costs on bigcore. The relaxation runs cold through
:func:`repro.verify.reference.run_relaxation`; every cold solve of the
tool is the monolithic one.
"""

from __future__ import annotations

import time

from conftest import print_table
from repro.core.sart import build_plan, run_sart
from repro.verify.reference import run_relaxation


def test_bench_monolithic(benchmark, bigcore_design, bigcore_ports):
    benchmark.pedantic(
        lambda: run_sart(bigcore_design.module, bigcore_ports),
        rounds=2, iterations=1,
    )


def test_bench_partitioned(benchmark, bigcore_design, bigcore_ports):
    benchmark.pedantic(
        lambda: run_relaxation(build_plan(bigcore_design.module, bigcore_ports)),
        rounds=2, iterations=1,
    )


def test_bench_modes_agree(bigcore_design, bigcore_ports):
    plan = build_plan(bigcore_design.module, bigcore_ports)
    t0 = time.perf_counter()
    part = run_relaxation(plan)
    part_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    mono = run_sart(plan=plan)
    mono_s = time.perf_counter() - t0

    differing = sum(
        1 for n, node in mono.node_avfs.items() if part.node_avfs[n] != node
    )
    print_table(
        "Partitioning ablation (bigcore, full suite pAVFs)",
        ["mode", "seconds", "iterations", "records differing"],
        [
            ["monolithic", mono_s, 1, 0],
            ["per-FUB relaxation", part_s, part.trace.iterations, differing],
        ],
    )
    assert part.trace.converged
    # The relaxed fixpoint is the monolithic solve: every NodeAvf
    # (visited included) and every set id on the shared plan.
    assert differing == 0
    assert part.node_avfs == mono.node_avfs
    assert part.f_sets.ids == mono.f_sets.ids
    assert part.b_sets.ids == mono.b_sets.ids
