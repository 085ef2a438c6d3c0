"""E9 — the Section 5.2 closed-form optimization.

"Once the iterations complete ... we are left with a closed form AVF
equation for every node in the RTL netlist ... any subsequent sequential
AVF computations on this particular design simply needs to generate new
pAVFs from the ACE model then plug those values into the closed form
equations. No subsequent sequential AVF computation needs to re-run the
SART or relaxation stages."

Checks: re-evaluation under fresh workload pAVFs (a) matches a from-
scratch SART run bit for bit, and (b) is substantially faster.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.ace.portavf import suite_ports
from repro.core.sart import SartConfig, run_sart
from repro.designs.bigcore import map_structure_ports
from repro.workloads import suite_by_class

CFG = SartConfig()


@pytest.fixture(scope="module")
def base_run(bigcore_design, bigcore_ports):
    return run_sart(bigcore_design.module, bigcore_ports, CFG)


@pytest.fixture(scope="module")
def new_workload_ports(bigcore_design):
    # A different workload class: OLTP-only instead of the full suite.
    traces = suite_by_class("oltp", count=3, length=4000)
    model_ports, _ = suite_ports(traces)
    return map_structure_ports(bigcore_design, model_ports)


def test_bench_closed_form_reevaluation(benchmark, base_run, new_workload_ports):
    closed = base_run.closed_form()
    node_avfs = benchmark(lambda: closed.evaluate(new_workload_ports))
    assert len(node_avfs) == len(base_run.node_avfs)


def test_bench_closed_form_matches_full_run(bigcore_design, base_run, new_workload_ports):
    closed = base_run.closed_form()

    started = time.perf_counter()
    reevaluated = closed.evaluate(new_workload_ports)
    reeval_seconds = time.perf_counter() - started

    started = time.perf_counter()
    fresh = run_sart(bigcore_design.module, new_workload_ports, CFG)
    full_seconds = time.perf_counter() - started

    differing = sum(reevaluated[net] != node for net, node in fresh.node_avfs.items())
    speedup = full_seconds / max(reeval_seconds, 1e-9)
    print_table(
        "Closed-form re-evaluation vs full SART re-run (new workload pAVFs)",
        ["method", "seconds", "records differing"],
        [
            ["full SART re-run", full_seconds, 0],
            ["closed-form plug-in", reeval_seconds, differing],
        ],
    )
    print(f"speedup {speedup:.1f}x; equations hold {closed.term_count():,} terms")
    assert reevaluated == fresh.node_avfs
    assert speedup > 1.5


def test_bench_equation_rendering(base_run):
    closed = base_run.closed_form()
    sample = [n for n, node in base_run.node_avfs.items() if node.kind == "seq"][:3]
    print()
    for net in sample:
        print(" ", closed.equation_for(net)[:120])
    for net in sample:
        eq = closed.equation_for(net)
        assert eq.startswith("AVF(") and "MIN(" in eq
