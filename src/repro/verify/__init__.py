"""Differential & metamorphic verification harness.

Randomized design/circuit generation (:mod:`repro.verify.cases`),
a library of cross-engine / lane-isolation / metamorphic / statistical
oracles (:mod:`repro.verify.oracles`), seeded defects proving each
oracle's sensitivity (:mod:`repro.verify.defects`), a content-addressed
golden corpus (:mod:`repro.verify.corpus`), greedy reproducer shrinking
(:mod:`repro.verify.shrink`), and the budgeted fuzz loop behind
``repro-sart verify`` (:mod:`repro.verify.harness`).

The reference solvers the cross-engine oracle and the equivalence tests
compare the compiled engine against also live here: the dict-based
fixpoint (:mod:`repro.verify.dataflow`) and the faithful walk engine
(:mod:`repro.verify.walker`), run on a design by
:func:`~repro.verify.reference.run_reference`, and the cold per-FUB
relaxation the relaxation-fixpoint oracle checks,
:func:`~repro.verify.reference.run_relaxation`.
"""

from repro.verify.cases import (
    CaseSpec,
    CircuitSpec,
    DesignCase,
    build_case,
    build_circuit,
    circuit_schedule,
    random_circuit_spec,
    random_spec,
)
from repro.verify.corpus import check_corpus, load_entries, update_corpus
from repro.verify.defects import DEFECTS, Defect, get_defect
from repro.verify.harness import (
    VerifyOptions,
    VerifyReport,
    bless_goldens,
    build_oracles,
    replay,
    run_verify,
)
from repro.verify.oracles import (
    CaseContext,
    Oracle,
    Violation,
    default_oracles,
    oracles_by_name,
)
from repro.verify.reference import run_reference, run_relaxation
from repro.verify.shrink import shrink

__all__ = [
    "CaseContext",
    "CaseSpec",
    "CircuitSpec",
    "DEFECTS",
    "Defect",
    "DesignCase",
    "Oracle",
    "VerifyOptions",
    "VerifyReport",
    "Violation",
    "bless_goldens",
    "build_case",
    "build_circuit",
    "build_oracles",
    "check_corpus",
    "circuit_schedule",
    "default_oracles",
    "get_defect",
    "load_entries",
    "oracles_by_name",
    "random_circuit_spec",
    "random_spec",
    "replay",
    "run_reference",
    "run_relaxation",
    "run_verify",
    "shrink",
    "update_corpus",
]
