"""E5 — the Section 5.2/6.1 convergence study.

"For our RTL, we found that 20 iterations was sufficient to achieve
convergence. ... We evaluated convergence here by plotting the average
pAVF of sequentials for each FUB over each iteration." Also: "any walk
can only cross one partition during each iteration". The relaxation
runs cold through :func:`repro.verify.reference.run_relaxation`.
"""

from __future__ import annotations

from conftest import print_table
from repro.core.sart import build_plan
from repro.verify.reference import run_relaxation


def test_bench_convergence_trace(benchmark, bigcore_design, bigcore_ports):
    def run():
        return run_relaxation(build_plan(bigcore_design.module, bigcore_ports))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    trace = result.trace
    assert trace is not None

    # The paper's convergence plot: per-FUB average pAVF per iteration.
    fubs = sorted(trace.fub_avg)[:6]
    rows = []
    for it in range(trace.iterations):
        rows.append([it + 1] + [trace.fub_avg[f][it] for f in fubs] + [trace.max_delta[it]])
    print_table(
        "Convergence — per-FUB avg sequential pAVF by iteration",
        ["iter"] + fubs + ["max delta"],
        rows,
    )
    print(f"paper: 20 iterations sufficient | converged in {trace.iterations}")

    assert trace.converged
    assert trace.iterations <= 20
    # Deltas shrink to nothing: the last merge changed no entry.
    assert trace.max_delta[-1] == 0.0
    assert trace.max_delta[0] > trace.max_delta[-1]
    # Each FUB's series is flat at the end.
    for series in trace.fub_avg.values():
        if len(series) >= 2:
            assert abs(series[-1] - series[-2]) < 1e-9


def test_bench_one_partition_per_iteration(bigcore_design, bigcore_ports):
    """Values cross one FUB boundary per iteration: convergence time grows
    with the FUB-graph diameter, so a 2-iteration run must still be far
    from the fixpoint on a deep design."""
    plan = build_plan(bigcore_design.module, bigcore_ports)
    short = run_relaxation(plan, iterations=2)
    full = run_relaxation(plan)
    moved = sum(
        1 for net in full.node_avfs
        if abs(full.avf(net) - short.avf(net)) > 1e-6
    )
    print(f"\nnodes still changing after iteration 2: {moved}")
    assert not short.trace.converged
    assert moved > 0
