"""ACE structure report tests."""

import pytest

from repro.ace.report import structure_rows, structure_table
from repro.perfmodel.machine import run_workload
from repro.workloads.generator import WorkloadSpec, generate_trace


@pytest.fixture(scope="module")
def results():
    return [
        run_workload(generate_trace(WorkloadSpec(name=f"w{i}", length=1500, seed=i)))
        for i in range(3)
    ]


def test_rows_cover_all_structures(results):
    rows = structure_rows(results)
    assert {r.name for r in rows} == set(results[0].structures)
    for row in rows:
        assert 0.0 <= row.avf <= 1.0
        assert 0.0 <= row.pavf_r <= 1.0
        assert row.bits == row.entries * results[0].structures[row.name].bits_per_entry


def test_latency_domination_flag(results):
    rows = {r.name: r for r in structure_rows(results)}
    assert rows["rob"].latency_dominated
    assert rows["fetch_buffer"].latency_dominated


def test_table_renders(results):
    text = structure_table(results)
    assert "structure" in text and "regime" in text
    assert "rob" in text
    assert text.count("\n") == len(results[0].structures)


def test_empty_results():
    assert structure_rows([]) == []
