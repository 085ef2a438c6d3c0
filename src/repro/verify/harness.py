"""The verify loop: budgeted fuzzing, oracle dispatch, shrink-on-fail.

``run_verify`` is the engine behind ``repro-sart verify``. One
invocation does, in order:

1. golden-corpus check (once),
2. global oracles (the budgeted SFI-vs-analytical tinycore check, once),
3. a seeded fuzz loop alternating design cases and circuit cases until
   the wall-clock budget expires, running every applicable oracle over
   each case.

Any violation triggers greedy shrinking
(:func:`repro.verify.shrink.shrink`) against the specific oracle that
fired, and the minimal reproducer spec is written to ``out_dir`` as
JSON; ``--replay`` feeds such a file straight back into the same oracle.

The ``defect`` parameter injects one seeded defect from
:mod:`repro.verify.defects` through the matching oracle seam — used by
the mutation-kill tests and the CI must-fail check to prove the
harness actually catches what it claims to catch.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.verify.cases import (
    CaseSpec,
    CircuitSpec,
    build_case,
    random_circuit_spec,
    random_spec,
)
from repro.verify.corpus import check_corpus, update_corpus
from repro.verify.defects import Defect
from repro.verify.oracles import (
    CaseContext,
    DeadlineSanityOracle,
    DeratedSerOracle,
    LaneIsolationOracle,
    Oracle,
    SCOPE_CIRCUIT,
    SCOPE_DESIGN,
    SCOPE_GLOBAL,
    SfiConsistencyOracle,
    Violation,
    default_oracles,
)
from repro.verify.shrink import shrink

MAX_REPRODUCERS = 5


@dataclass
class VerifyOptions:
    """Knobs for one ``run_verify`` invocation."""

    budget: float = 60.0        # fuzz wall-clock budget, seconds
    seed: int = 0
    out_dir: Path = Path("verify-failures")
    corpus_dir: Path | None = None      # None = shipped corpus
    oracle_names: tuple[str, ...] = ()  # empty = all
    skip_global: bool = False   # skip the SFI consistency oracle
    skip_corpus: bool = False
    sfi_injections: int = 192
    max_cases: int | None = None        # cap fuzz cases (tests)
    shrink_attempts: int = 48


@dataclass
class VerifyReport:
    """What one verify invocation did and found."""

    seed: int
    budget: float
    design_cases: int = 0
    circuit_cases: int = 0
    corpus_entries: int = 0
    violations: list[Violation] = field(default_factory=list)
    reproducers: list[Path] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "design_cases": self.design_cases,
            "circuit_cases": self.circuit_cases,
            "corpus_entries": self.corpus_entries,
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
            "violations": [
                {"oracle": v.oracle, "case": v.case, "message": v.message}
                for v in self.violations
            ],
            "reproducers": [str(p) for p in self.reproducers],
        }


def build_oracles(options: VerifyOptions,
                  defect: Defect | None = None) -> list[Oracle]:
    """The oracle set for this run, with defect seams wired in."""
    oracles: list[Oracle] = []
    for oracle in default_oracles():
        if options.oracle_names and oracle.name not in options.oracle_names:
            continue
        if isinstance(oracle, LaneIsolationOracle):
            if defect is not None and defect.make_sim is not None:
                oracle = LaneIsolationOracle(make_sim=defect.make_sim)
        if isinstance(oracle, SfiConsistencyOracle):
            if options.skip_global:
                continue
            analytic = defect.analytic if defect is not None else None
            oracle = SfiConsistencyOracle(
                injections=options.sfi_injections,
                seed=options.seed + 7,
                analytic=analytic,
            )
        if isinstance(oracle, DeratedSerOracle):
            # Campaign-backed like the SFI check, so the same skip flag
            # (--no-sfi) turns off both budgeted statistical oracles.
            if options.skip_global:
                continue
            derated = defect.derated if defect is not None else None
            oracle = DeratedSerOracle(derated=derated)
        if isinstance(oracle, DeadlineSanityOracle):
            corrupt = (defect.corrupt_deadlines
                       if defect is not None else None)
            if corrupt is not None:
                oracle = DeadlineSanityOracle(corrupt=corrupt)
        oracles.append(oracle)
    return oracles


def run_verify(options: VerifyOptions,
               defect: Defect | None = None,
               log=None) -> VerifyReport:
    """Run the full verification pass. Never raises on violations."""
    say = log or (lambda _msg: None)
    start = time.monotonic()
    report = VerifyReport(seed=options.seed, budget=options.budget)
    oracles = build_oracles(options, defect)
    design_oracles = [o for o in oracles if o.scope == SCOPE_DESIGN]
    circuit_oracles = [o for o in oracles if o.scope == SCOPE_CIRCUIT]
    global_oracles = [o for o in oracles if o.scope == SCOPE_GLOBAL]
    mutate = defect.mutate_sart if defect is not None else None
    corrupt = defect.corrupt_corpus if defect is not None else None

    # 1. Golden corpus (once).
    if not options.skip_corpus:
        corpus_violations, checked = check_corpus(
            options.corpus_dir, corrupt=corrupt)
        report.corpus_entries = checked
        report.violations.extend(corpus_violations)
        say(f"corpus: {checked} goldens, "
            f"{len(corpus_violations)} violation(s)")

    # 2. Global oracles (once).
    for oracle in global_oracles:
        found = oracle.check(None)
        report.violations.extend(found)
        say(f"{oracle.name}: {len(found)} violation(s)")

    # 3. The fuzz loop.
    rng = random.Random(options.seed)
    while time.monotonic() - start < options.budget:
        total = report.design_cases + report.circuit_cases
        if options.max_cases is not None and total >= options.max_cases:
            break
        if len(report.reproducers) >= MAX_REPRODUCERS:
            say(f"stopping early: {MAX_REPRODUCERS} reproducers written")
            break
        if total % 2 == 0 and design_oracles:
            report.design_cases += 1
            spec = random_spec(rng)
            report.violations.extend(
                _run_design_case(spec, design_oracles, mutate,
                                 options, report, say))
        elif circuit_oracles:
            report.circuit_cases += 1
            spec = random_circuit_spec(rng)
            report.violations.extend(
                _run_circuit_case(spec, circuit_oracles,
                                  options, report, say))
        elif not design_oracles:
            break  # nothing fuzzable selected

    report.elapsed = time.monotonic() - start
    say(f"verify: {report.design_cases} design + {report.circuit_cases} "
        f"circuit cases in {report.elapsed:.1f}s, "
        f"{len(report.violations)} violation(s)")
    return report


def replay(path: Path, options: VerifyOptions,
           defect: Defect | None = None, log=None) -> VerifyReport:
    """Re-run the oracles recorded in a reproducer file."""
    say = log or (lambda _msg: None)
    start = time.monotonic()
    data = json.loads(Path(path).read_text())
    report = VerifyReport(seed=options.seed, budget=0.0)
    oracles = build_oracles(options, defect)
    wanted = data.get("oracle")
    if wanted:
        oracles = [o for o in oracles if o.name == wanted] or oracles
    mutate = defect.mutate_sart if defect is not None else None
    if data["kind"] == "design":
        spec = CaseSpec.from_json(data["spec"])
        report.design_cases = 1
        design_oracles = [o for o in oracles if o.scope == SCOPE_DESIGN]
        case = build_case(spec)
        ctx = CaseContext(case, mutate=mutate)
        for oracle in design_oracles:
            found = oracle.check(case, ctx)
            report.violations.extend(found)
            say(f"{oracle.name}: {len(found)} violation(s)")
    elif data["kind"] == "circuit":
        spec = CircuitSpec.from_json(data["spec"])
        report.circuit_cases = 1
        for oracle in oracles:
            if oracle.scope != SCOPE_CIRCUIT:
                continue
            found = oracle.check(spec)
            report.violations.extend(found)
            say(f"{oracle.name}: {len(found)} violation(s)")
    else:
        raise ValueError(f"unknown reproducer kind {data.get('kind')!r}")
    report.elapsed = time.monotonic() - start
    return report


def bless_goldens(options: VerifyOptions, log=None) -> list[Path]:
    """Regenerate the golden corpus (the --update-goldens path)."""
    say = log or (lambda _msg: None)
    paths = update_corpus(options.corpus_dir)
    for path in paths:
        say(f"blessed {path}")
    return paths


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

def _run_design_case(spec, design_oracles, mutate, options,
                     report, say) -> list[Violation]:
    try:
        case = build_case(spec)
    except Exception as exc:  # generator bug: report, don't crash the loop
        return [Violation("case-builder", f"spec({spec.to_json()})",
                          f"build_case raised {type(exc).__name__}: {exc}")]
    ctx = CaseContext(case, mutate=mutate)
    out: list[Violation] = []
    for oracle in design_oracles:
        try:
            found = oracle.check(case, ctx)
        except Exception as exc:
            found = [Violation(oracle.name, case.describe(),
                               f"oracle crashed: {type(exc).__name__}: {exc}")]
        if found:
            out.extend(found)
            _shrink_and_save(
                "design", spec, oracle, found[0],
                lambda s, o=oracle: _design_fails(s, o, mutate),
                options, report, say)
    return out


def _run_circuit_case(spec, circuit_oracles, options,
                      report, say) -> list[Violation]:
    out: list[Violation] = []
    for oracle in circuit_oracles:
        try:
            found = oracle.check(spec)
        except Exception as exc:
            found = [Violation(oracle.name, f"circuit({spec.to_json()})",
                               f"oracle crashed: {type(exc).__name__}: {exc}")]
        if found:
            out.extend(found)
            _shrink_and_save(
                "circuit", spec, oracle, found[0],
                lambda s, o=oracle: bool(o.check(s)),
                options, report, say)
    return out


def _design_fails(spec, oracle, mutate) -> bool:
    case = build_case(spec)
    ctx = CaseContext(case, mutate=mutate)
    return bool(oracle.check(case, ctx))


def _shrink_and_save(kind, spec, oracle, violation, still_fails,
                     options, report, say) -> None:
    if len(report.reproducers) >= MAX_REPRODUCERS:
        return
    say(f"VIOLATION [{oracle.name}] {violation.message}; shrinking...")
    small, attempts = shrink(spec, still_fails,
                             max_attempts=options.shrink_attempts)
    out_dir = Path(options.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{oracle.name}-{kind}-seed{spec.seed}.json"
    path.write_text(json.dumps({
        "kind": kind,
        "oracle": oracle.name,
        "spec": small.to_json(),
        "original_spec": spec.to_json(),
        "shrink_attempts": attempts,
        "message": violation.message,
        "replay": f"repro-sart verify --replay {path}",
    }, indent=2, sort_keys=True) + "\n")
    report.reproducers.append(path)
    say(f"reproducer written to {path} "
        f"(shrunk in {attempts} attempt(s))")
