"""Oracle library: clean cases stay clean, context memoizes, seams work."""

from __future__ import annotations

import random

import pytest

from repro.verify.cases import (
    CaseSpec,
    CircuitSpec,
    build_case,
    random_circuit_spec,
    random_spec,
)
from repro.verify.oracles import (
    CaseContext,
    CrossEngineOracle,
    CtrlPinnedOracle,
    LaneIsolationOracle,
    LoopMonotonicityOracle,
    MinResolutionOracle,
    RangeOracle,
    SCOPE_CIRCUIT,
    SCOPE_DESIGN,
    SfiConsistencyOracle,
    default_oracles,
    oracles_by_name,
)

DESIGN_ORACLES = [o for o in default_oracles() if o.scope == SCOPE_DESIGN]


@pytest.fixture(scope="module")
def loopy_case():
    return build_case(CaseSpec(seed=42, n_fubs=3, struct_width=2,
                               fsm_loops=1, stall_loops=1, pointer_loops=1,
                               ctrl_regs=2, env_seed=5))


def test_design_oracles_clean_on_fixed_case(loopy_case):
    ctx = CaseContext(loopy_case)
    for oracle in DESIGN_ORACLES:
        assert oracle.check(loopy_case, ctx) == [], oracle.name


@pytest.mark.parametrize("seed", range(8))
def test_design_oracles_clean_on_random_cases(seed):
    case = build_case(random_spec(random.Random(seed)))
    ctx = CaseContext(case)
    for oracle in DESIGN_ORACLES:
        assert oracle.check(case, ctx) == [], oracle.name


def test_context_memoizes_sart_runs(loopy_case):
    calls = []

    def counting_mutate(engine, result):
        calls.append(engine)
        return result

    ctx = CaseContext(loopy_case, mutate=counting_mutate)
    first = ctx.sart()
    again = ctx.sart()
    assert first is again
    assert calls == ["compiled"]
    ctx.sart(engine="dataflow")
    assert calls == ["compiled", "dataflow"]


def test_ctrl_oracle_reports_missing_register(loopy_case):
    case = build_case(CaseSpec(seed=42, ctrl_regs=0))
    case.ctrl_names.append("F0/cfg_phantom")
    violations = CtrlPinnedOracle().check(case, CaseContext(case))
    assert violations and "missing" in violations[0].message


def test_lane_isolation_oracle_clean_on_random_circuits():
    oracle = LaneIsolationOracle()
    rng = random.Random(9)
    for _ in range(5):
        assert oracle.check(random_circuit_spec(rng)) == []


def test_lane_isolation_oracle_clean_on_mem_circuit():
    # A mem-bearing circuit exercises the final memory sweep too.
    oracle = LaneIsolationOracle()
    assert oracle.check(CircuitSpec(seed=2, with_mem=True, n_faults=2)) == []


def test_sfi_oracle_seams_drive_verdict():
    clean = SfiConsistencyOracle(
        analytic=lambda program: 0.5,
        measure=lambda program, injections, seed: (0.4, 0.3, 0.5))
    assert clean.check(None) == []
    optimistic = SfiConsistencyOracle(
        analytic=lambda program: 0.1,
        measure=lambda program, injections, seed: (0.4, 0.3, 0.5))
    violations = optimistic.check(None)
    assert violations and "undershoots" in violations[0].message


def test_sfi_oracle_slack_tolerates_boundary():
    oracle = SfiConsistencyOracle(
        slack=0.05,
        analytic=lambda program: 0.26,
        measure=lambda program, injections, seed: (0.4, 0.3, 0.5))
    assert oracle.check(None) == []


def test_registry_names_unique_and_complete():
    named = oracles_by_name()
    assert len(named) == len(default_oracles())
    assert {"range", "min-resolution", "ctrl-pinned", "cross-engine",
            "loop-monotonicity", "lane-isolation",
            "sfi-consistency", "deadline-sanity",
            "derated-ser"} == set(named)


def test_loop_monotonicity_points_sorted():
    oracle = LoopMonotonicityOracle(points=(0.6, 0.1, 0.3))
    assert oracle.points == (0.1, 0.3, 0.6)


@pytest.mark.fuzz
def test_design_oracles_clean_on_many_random_cases():
    rng = random.Random(1234)
    for _ in range(40):
        case = build_case(random_spec(rng))
        ctx = CaseContext(case)
        for oracle in DESIGN_ORACLES:
            assert oracle.check(case, ctx) == [], (oracle.name,
                                                   case.spec.to_json())


@pytest.mark.fuzz
def test_lane_isolation_clean_on_many_random_circuits():
    oracle = LaneIsolationOracle()
    rng = random.Random(4321)
    for _ in range(40):
        spec = random_circuit_spec(rng)
        assert oracle.check(spec) == [], spec.to_json()


@pytest.mark.fuzz
def test_sfi_consistency_default_paths():
    assert SfiConsistencyOracle(injections=96).check(None) == []
