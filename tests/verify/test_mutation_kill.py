"""Mutation-kill suite: every shipped oracle catches its seeded defect.

This is the harness testing itself for *sensitivity*: an oracle that
returns no violations on a clean engine could also be an oracle that
stopped looking. For each registered defect we corrupt exactly one seam
and assert (a) the matching oracle fires, and (b) the same oracle is
silent without the defect — so the kill is attributable to the defect,
not to flakiness.
"""

from __future__ import annotations

import pytest

from repro.verify.cases import CaseSpec, CircuitSpec, build_case
from repro.verify.corpus import check_corpus
from repro.verify.defects import DEFECTS, get_defect
from repro.verify.oracles import (
    CaseContext,
    DeadlineSanityOracle,
    DeratedSerOracle,
    LaneIsolationOracle,
    SCOPE_CIRCUIT,
    SCOPE_DESIGN,
    SCOPE_GLOBAL,
    SfiConsistencyOracle,
    oracles_by_name,
)

# One representative case with every feature the design oracles read:
# structures, all three loop kinds, control registers, multiple FUBs.
KILL_SPEC = CaseSpec(seed=42, n_fubs=3, flops_per_fub=8, struct_width=2,
                     fsm_loops=1, stall_loops=1, pointer_loops=1,
                     ctrl_regs=2, env_seed=5)
KILL_CIRCUIT = CircuitSpec(seed=2, with_mem=True, lanes=4, n_faults=2)

DESIGN_DEFECTS = sorted(n for n, d in DEFECTS.items()
                        if d.mutate_sart is not None)


def test_every_oracle_has_a_defect():
    covered = {d.oracle for d in DEFECTS.values()}
    shipped = set(oracles_by_name()) | {"golden-corpus"}
    assert shipped <= covered, f"oracles without a defect: {shipped - covered}"


def test_unknown_defect_name_lists_available():
    with pytest.raises(ValueError, match="cross-engine"):
        get_defect("no-such-defect")


@pytest.mark.parametrize("name", DESIGN_DEFECTS)
def test_design_defect_killed_by_its_oracle(name):
    defect = get_defect(name)
    oracle = oracles_by_name()[defect.oracle]
    assert oracle.scope == SCOPE_DESIGN
    case = build_case(KILL_SPEC)

    clean = oracle.check(case, CaseContext(case))
    assert clean == [], "oracle must be silent without the defect"

    mutated = oracle.check(case, CaseContext(case, mutate=defect.mutate_sart))
    assert mutated, f"defect {name!r} was not killed by {defect.oracle!r}"
    assert all(v.oracle == defect.oracle for v in mutated)


def test_lane_isolation_defect_killed():
    defect = get_defect("lane-isolation")
    oracle = LaneIsolationOracle(make_sim=defect.make_sim)
    assert LaneIsolationOracle().check(KILL_CIRCUIT) == []
    violations = oracle.check(KILL_CIRCUIT)
    assert violations and violations[0].oracle == "lane-isolation"
    assert "lane 1 differs" in violations[0].message


def test_sfi_defect_killed():
    defect = get_defect("sfi-consistency")
    measure = lambda run: (0.31, 0.25, 0.38)  # noqa: E731
    clean = SfiConsistencyOracle(analytic=lambda run: 0.39, measure=measure)
    assert clean.check(None) == []
    broken = SfiConsistencyOracle(analytic=defect.analytic, measure=measure)
    violations = broken.check(None)
    assert violations and violations[0].oracle == "sfi-consistency"


def test_deadline_defect_killed():
    defect = get_defect("deadline-sanity")
    summaries = {
        "rf": {"events": 4, "p50": 2, "p95": 3, "max": 3, "mean": 2.5,
               "mass_cycles": 10.0, "ace_bit_cycles": 10.0, "cycles": 50},
        "dmem": {"events": 0, "p50": 0, "p95": 0, "max": 0, "mean": 0.0,
                 "mass_cycles": 0.0, "ace_bit_cycles": 0.0, "cycles": 50},
    }
    analysis = lambda program: summaries  # noqa: E731
    clean = DeadlineSanityOracle(analysis=analysis)
    assert clean.check(None) == []
    broken = DeadlineSanityOracle(analysis=analysis,
                                  corrupt=defect.corrupt_deadlines)
    violations = broken.check(None)
    assert violations, "deadline defect was not killed"
    assert all(v.oracle == "deadline-sanity" for v in violations)
    assert "conservation" in violations[0].message


def test_derated_ser_defect_killed():
    defect = get_defect("derated-ser")
    measure = lambda run: (1.5e-3, 1.1e-3, 1.9e-3)  # noqa: E731
    clean = DeratedSerOracle(derated=lambda run: 1.2e-3, measure=measure)
    assert clean.check(None) == []
    broken = DeratedSerOracle(derated=defect.derated, measure=measure)
    violations = broken.check(None)
    assert violations and violations[0].oracle == "derated-ser"


def test_derated_ser_two_sided():
    # Unlike the SFI check, the derated band rejects both directions.
    measure = lambda run: (1.5e-3, 1.0e-3, 2.0e-3)  # noqa: E731
    high = DeratedSerOracle(derated=lambda run: 3.0e-3, measure=measure)
    assert high.check(None), "over-prediction must fire"
    low = DeratedSerOracle(derated=lambda run: 1.0e-4, measure=measure)
    assert low.check(None), "under-prediction must fire"


def test_golden_corpus_defect_killed():
    defect = get_defect("golden-corpus")
    clean, checked = check_corpus()
    assert checked > 0, "shipped corpus missing"
    assert clean == []
    corrupted, _ = check_corpus(corrupt=defect.corrupt_corpus)
    assert corrupted and all(v.oracle == "golden-corpus" for v in corrupted)


def test_defect_scopes_are_exclusive():
    # Each defect corrupts exactly one seam; a defect that corrupts two
    # could mask which oracle actually caught it.
    for defect in DEFECTS.values():
        seams = [defect.mutate_sart, defect.make_sim, defect.analytic,
                 defect.corrupt_corpus, defect.corrupt_deadlines,
                 defect.derated]
        assert sum(s is not None for s in seams) == 1, defect.name
