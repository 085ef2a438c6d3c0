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
    DeadlineSanityOracle,
    DeratedSerOracle,
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


def test_relaxed_engine_relaxes_the_compiled_plan(loopy_case):
    # The relaxation-fixpoint oracle compares set ids, which only mean
    # the same set on one plan.
    ctx = CaseContext(loopy_case)
    relaxed = ctx.sart(engine="relaxed")
    assert relaxed.plan is ctx.sart().plan
    assert relaxed.trace.converged and relaxed.trace.iterations > 1
    assert ctx.sart(engine="relaxed") is relaxed


def test_a_case_solves_every_loop_value_on_one_plan(loopy_case, monkeypatch):
    # The six design-scope oracles build the case's compiled plan once,
    # and the dataflow reference builds its own.
    from repro.core.compiled import SolvePlan

    build = SolvePlan.build.__func__
    builds = []

    def counting_build(cls, *args, **kwargs):
        builds.append(cls)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(SolvePlan, "build", classmethod(counting_build))
    ctx = CaseContext(loopy_case)
    for oracle in DESIGN_ORACLES:
        assert oracle.check(loopy_case, ctx) == [], oracle.name
    assert len(DESIGN_ORACLES) == 6 and len(builds) == 2
    assert {ctx.sart(loop_pavf=v).plan for v in (0.1, 0.3, 0.6)} == {ctx.plan}


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
        analytic=lambda run: 0.5,
        measure=lambda run: (0.4, 0.3, 0.5))
    assert clean.check(None) == []
    optimistic = SfiConsistencyOracle(
        analytic=lambda run: 0.1,
        measure=lambda run: (0.4, 0.3, 0.5))
    violations = optimistic.check(None)
    assert violations and "undershoots" in violations[0].message


def test_sfi_oracle_slack_tolerates_boundary():
    oracle = SfiConsistencyOracle(
        slack=0.05,
        analytic=lambda run: 0.26,
        measure=lambda run: (0.4, 0.3, 0.5))
    assert oracle.check(None) == []


# The global oracles check the flow users run: their default seams are
# pipeline runs, so a hand-wired copy that drifts from it fails here.

def test_deadline_oracle_reads_the_pipeline_run():
    from repro.pipeline import RunSpec, execute

    assert (DeadlineSanityOracle()._default_analysis("fib")
            == execute(RunSpec("tinycore:fib")).port_env.deadlines)


def test_sfi_oracle_measures_the_cli_campaign():
    from repro.pipeline import RunSpec, SfiSpec, execute
    from repro.sfi import overall_avf

    outcome = execute(RunSpec("tinycore:fib", sfi=SfiSpec(96, 7)))
    avf, (lo, hi) = overall_avf(outcome.sfi.result.outcomes)
    oracle = SfiConsistencyOracle(injections=96, seed=7)
    assert oracle._default_measure(oracle.run()) == (avf, lo, hi)


def test_statistical_oracles_make_one_pipeline_run(monkeypatch):
    # Both sides of each check come from one run: one tinycore build.
    from repro.pipeline import runner

    builds = []
    real = runner.stage_design
    monkeypatch.setattr(runner, "stage_design", lambda ctx, provider: (
        builds.append(provider.ref) or real(ctx, provider)))
    assert SfiConsistencyOracle(injections=96).check(None) == []
    assert builds == ["tinycore:fib"]
    builds.clear()
    assert DeratedSerOracle().check(None) == []
    assert builds == ["tinycore:fib"]


def test_registry_names_unique_and_complete():
    named = oracles_by_name()
    assert len(named) == len(default_oracles())
    assert {"range", "min-resolution", "ctrl-pinned", "cross-engine",
            "relaxation-fixpoint", "loop-monotonicity", "lane-isolation",
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
