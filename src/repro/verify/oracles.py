"""The oracle library: independent cross-checks run over generated cases.

Each oracle answers one question about a case and returns a list of
:class:`Violation` records (empty = clean). Three scopes exist:

``design``
    Runs against a :class:`~repro.verify.cases.DesignCase` through a
    shared :class:`CaseContext` that caches SART results per
    (engine, knobs) so five oracles don't pay for five solves.
``circuit``
    Runs against a :class:`~repro.verify.cases.CircuitSpec`: every lane
    of a wide simulator pass agrees bit-exactly with a 1-lane run of
    that lane's faults.
``global``
    Design-independent statistical checks (the budgeted SFI-vs-
    analytical consistency check on tinycore); run once per verify
    invocation rather than once per case.

Every oracle reads its inputs through the context's seams, and the
defect registry (:mod:`repro.verify.defects`) can corrupt exactly one
seam at a time. That is what makes the harness *testable for
sensitivity*: ``tests/verify/test_mutation_kill.py`` proves each oracle
fails on its seeded defect, so a silent oracle is a real pass, not a
check that quietly stopped looking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.report import average_seq_avf
from repro.core.resolve import ROLE_CTRL, ROLE_LOOP, ROLE_STRUCT
from repro.core.sart import SartConfig, SartResult, run_sart
from repro.rtlsim.simulator import Simulator
from repro.verify.reference import run_reference
from repro.verify.cases import (
    CircuitSpec,
    DesignCase,
    build_circuit,
    circuit_schedule,
)

SCOPE_DESIGN = "design"
SCOPE_CIRCUIT = "circuit"
SCOPE_GLOBAL = "global"


@dataclass(frozen=True)
class Violation:
    """One oracle failure on one case."""

    oracle: str
    case: str           # human-readable case description
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.oracle}] {self.case}: {self.message}"


class CaseContext:
    """Shared, memoized computation layer for design-case oracles.

    Oracles request SART results through :meth:`sart` instead of calling
    the engine directly. This (a) de-duplicates solves across oracles —
    the range, MIN-resolution, control-pin, and cross-engine checks all
    share the default compiled run — and (b) provides the seam the
    defect registry corrupts for mutation-kill testing: ``mutate`` sees
    every result on its way out, exactly as a buggy engine would present
    it.
    """

    def __init__(self, case: DesignCase,
                 mutate: Callable[[str, SartResult], SartResult] | None = None):
        self.case = case
        self.mutate = mutate
        self._cache: dict[tuple, SartResult] = {}

    def sart(self, *, engine: str = "compiled", loop_pavf: float | None = None,
             partition: bool = True) -> SartResult:
        """SART result of the case; *engine* ``"compiled"`` is the
        production solver, ``"dataflow"``/``"walk"`` the references of
        :func:`~repro.verify.reference.run_reference`."""
        loop = self.case.spec.loop_pavf if loop_pavf is None else loop_pavf
        key = (engine, loop, partition)
        found = self._cache.get(key)
        if found is None:
            config = SartConfig(loop_pavf=loop, partition_by_fub=partition)
            case = self.case
            if engine == "compiled":
                found = run_sart(case.module, case.structures, config)
            else:
                found = run_reference(case.module, case.structures, config,
                                      engine=engine)
            if self.mutate is not None:
                found = self.mutate(engine, found)
            self._cache[key] = found
        return found


class Oracle:
    """Base class: a named check over one scope."""

    name: str = "oracle"
    scope: str = SCOPE_DESIGN

    def check(self, subject, ctx=None) -> list[Violation]:  # pragma: no cover
        raise NotImplementedError


# ----------------------------------------------------------------------
# design-scope oracles
# ----------------------------------------------------------------------

class RangeOracle(Oracle):
    """Every resolved AVF and both directional estimates lie in [0, 1]."""

    name = "range"

    def check(self, case: DesignCase, ctx: CaseContext) -> list[Violation]:
        result = ctx.sart()
        out = []
        for node in result.node_avfs.values():
            for label, value in (("avf", node.avf), ("forward", node.forward),
                                 ("backward", node.backward)):
                if not (0.0 <= value <= 1.0) or math.isnan(value):
                    out.append(Violation(
                        self.name, case.describe(),
                        f"{node.net}: {label}={value!r} outside [0, 1]"))
        return out


class MinResolutionOracle(Oracle):
    """Final AVF never exceeds either walk (Table 1: AVF = MIN(f, b)).

    Structure, loop, and control nodes are exempt: their AVF is the
    measured/injected value, not the MIN of the walks.
    """

    name = "min-resolution"
    _exempt = (ROLE_STRUCT, ROLE_LOOP, ROLE_CTRL)

    def check(self, case: DesignCase, ctx: CaseContext) -> list[Violation]:
        result = ctx.sart()
        out = []
        for node in result.node_avfs.values():
            if node.role in self._exempt:
                continue
            bound = min(node.forward, node.backward)
            if node.avf > bound + 1e-12:
                out.append(Violation(
                    self.name, case.describe(),
                    f"{node.net}: avf={node.avf:.12f} exceeds "
                    f"min(f={node.forward:.12f}, b={node.backward:.12f})"))
        return out


class CtrlPinnedOracle(Oracle):
    """Control-register nodes resolve to the injected pAVF_R (1.0)."""

    name = "ctrl-pinned"

    def check(self, case: DesignCase, ctx: CaseContext) -> list[Violation]:
        result = ctx.sart()
        out = []
        expected = result.config.ctrl_pavf
        for net in case.ctrl_names:
            node = result.node_avfs.get(net)
            if node is None:
                out.append(Violation(self.name, case.describe(),
                                     f"generated control register {net} "
                                     "missing from the node graph"))
                continue
            if node.role != ROLE_CTRL:
                out.append(Violation(
                    self.name, case.describe(),
                    f"{net}: classified as {node.role!r}, not a control "
                    "register (pattern matcher regressed?)"))
            elif abs(node.avf - expected) > 1e-12:
                out.append(Violation(
                    self.name, case.describe(),
                    f"{net}: control register avf={node.avf!r}, expected "
                    f"pinned pAVF_R={expected!r}"))
        return out


class CrossEngineOracle(Oracle):
    """The compiled engine and the dataflow reference resolve identically (<= tol).

    Both the monolithic fixpoint and the partitioned relaxation paths
    are compared — they take different code routes through both engines.
    """

    name = "cross-engine"

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    def check(self, case: DesignCase, ctx: CaseContext) -> list[Violation]:
        out = []
        for partition in (False, True):
            compiled = ctx.sart(engine="compiled", partition=partition)
            dataflow = ctx.sart(engine="dataflow", partition=partition)
            mode = "partitioned" if partition else "monolithic"
            if set(compiled.node_avfs) != set(dataflow.node_avfs):
                out.append(Violation(
                    self.name, case.describe(),
                    f"{mode}: engines disagree on the node set"))
                continue
            worst = None
            for net, node in compiled.node_avfs.items():
                delta = abs(node.avf - dataflow.node_avfs[net].avf)
                if delta > self.tol and (worst is None or delta > worst[1]):
                    worst = (net, delta)
            if worst is not None:
                out.append(Violation(
                    self.name, case.describe(),
                    f"{mode}: compiled vs dataflow diverge at {worst[0]} "
                    f"by {worst[1]:.3e} (tol {self.tol:.0e})"))
        return out


class LoopMonotonicityOracle(Oracle):
    """Per-node AVF is monotone in the loop-boundary pAVF (Figure 8).

    Propagation sets are structural; the loop value only enters through
    the environment, and a capped sum is monotone in every term — so
    raising the injected loop pAVF may never lower any node's AVF.
    """

    name = "loop-monotonicity"

    def __init__(self, points: tuple[float, ...] = (0.1, 0.3, 0.6)):
        self.points = tuple(sorted(points))

    def check(self, case: DesignCase, ctx: CaseContext) -> list[Violation]:
        out = []
        prev_result = None
        prev_point = None
        for point in self.points:
            result = ctx.sart(loop_pavf=point)
            if prev_result is not None:
                for net, node in result.node_avfs.items():
                    if node.role == ROLE_STRUCT:
                        continue  # measured AVFs held fixed across points
                    before = prev_result.node_avfs[net].avf
                    if node.avf < before - 1e-9:
                        out.append(Violation(
                            self.name, case.describe(),
                            f"{net}: avf dropped {before:.9f} -> "
                            f"{node.avf:.9f} when loop pAVF rose "
                            f"{prev_point} -> {point}"))
                        break  # one witness per point pair is enough
                before_avg = average_seq_avf(prev_result.node_avfs)
                after_avg = average_seq_avf(result.node_avfs)
                if after_avg < before_avg - 1e-9:
                    out.append(Violation(
                        self.name, case.describe(),
                        f"average seq AVF dropped {before_avg:.9f} -> "
                        f"{after_avg:.9f} when loop pAVF rose "
                        f"{prev_point} -> {point}"))
            prev_result, prev_point = result, point
        return out


# ----------------------------------------------------------------------
# circuit-scope oracle
# ----------------------------------------------------------------------

class LaneIsolationOracle(Oracle):
    """Every lane of a wide run equals a 1-lane run with only its flips.

    Lanes share one simulator pass but must never interact. Lane L of a
    ``spec.lanes``-wide run is compared against a 1-lane
    :class:`~repro.rtlsim.simulator.Simulator` driven by the same
    stimulus and only lane L's fault flips: net for net every cycle, and
    word for word in every memory at the end. A 1-lane run never takes
    :class:`~repro.rtlsim.simulator.MemState`'s divergence paths, so it
    is an independent reference for the per-lane overlay code.
    ``make_sim`` builds the wide simulator only and is the injectable
    seam: tests substitute a deliberately corrupted factory to prove
    divergence is caught.
    """

    name = "lane-isolation"
    scope = SCOPE_CIRCUIT

    def __init__(self, make_sim=None):
        self.make_sim = make_sim or Simulator

    def check(self, spec: CircuitSpec, ctx=None) -> list[Violation]:
        module = build_circuit(spec)
        stimulus, faults = circuit_schedule(spec, module)
        wide = self.make_sim(module, lanes=spec.lanes)
        singles = [Simulator(module, lanes=1) for _ in range(spec.lanes)]
        case = f"circuit({spec.to_json()})"
        nets = sorted(module.nets)
        by_cycle: dict[int, list[tuple[str, int]]] = {}
        for cycle, net, mask in faults:
            by_cycle.setdefault(cycle, []).append((net, mask))
        for cycle, frame in enumerate(stimulus):
            for sim in (wide, *singles):
                for net, bit in frame.items():
                    sim.poke_all_lanes(net, bit)
            for net in nets:
                got = wide.peek(net)
                want = 0
                for lane, single in enumerate(singles):
                    want |= single.peek(net) << lane
                if got != want:
                    diff = got ^ want
                    lane = (diff & -diff).bit_length() - 1
                    return [Violation(
                        self.name, case,
                        f"cycle {cycle}: {net} lane {lane} differs from "
                        f"its 1-lane run (wide={got:#x}, "
                        f"1-lane runs={want:#x})")]
            for net, mask in by_cycle.get(cycle, ()):
                wide.flip(net, mask)
                for lane, single in enumerate(singles):
                    if (mask >> lane) & 1:
                        single.flip(net, 1)
            for sim in (wide, *singles):
                sim.step()
        for mem_name, mem in wide.mems.items():
            for lane, single in enumerate(singles):
                ref = single.mems[mem_name]
                for addr in range(mem.depth):
                    got, want = mem.lane_word(lane, addr), ref.lane_word(0, addr)
                    if got != want:
                        return [Violation(
                            self.name, case,
                            f"final mem {mem_name}[{addr}] lane {lane} "
                            f"differs from its 1-lane run "
                            f"({got:#x} vs {want:#x})")]
        return []


# ----------------------------------------------------------------------
# global-scope oracle
# ----------------------------------------------------------------------

class SfiConsistencyOracle(Oracle):
    """Budgeted statistical consistency: analytical SART vs SFI ground
    truth on tinycore.

    The paper's conservatism contract: the analytical estimate tracks
    but does not *undershoot* measurement. Both sides come from one
    :func:`~repro.ser.correlation.calibrated_run` with an ``[sfi]``
    section. The measurement is its campaign, the one ``repro-sart sfi``
    runs (``injections`` faults uniformly into tinycore's sequential
    nodes; the sfi stage reads no SART output): its SDC AVF with its
    Wilson interval. SART predicts the same quantity as the mean
    sequential AVF over the injectable nodes. The check fails when the
    analytical prediction drops below the interval's lower bound minus
    ``slack`` (model optimistic: the paper's Figure 10 contract is
    broken).

    ``analytic`` (run -> predicted AVF) and ``measure`` (run -> SDC AVF
    and interval) are injectable seams for mutation-kill tests (a
    corrupted analytic model must be caught); with both injected no run
    is made and they receive ``None``.
    """

    name = "sfi-consistency"
    scope = SCOPE_GLOBAL

    def __init__(self, program: str = "fib", injections: int = 192,
                 slack: float = 0.05, seed: int = 7,
                 analytic: Callable[..., float] | None = None,
                 measure: Callable[..., tuple[float, float, float]] | None = None):
        self.program = program
        self.injections = injections
        self.slack = slack
        self.seed = seed
        self._analytic = analytic
        self._measure = measure

    def run(self):
        """The oracle's one pipeline run: SART plus the ``[sfi]`` campaign."""
        from repro.pipeline import SfiSpec
        from repro.ser.correlation import calibrated_run

        return calibrated_run(
            self.program, sfi=SfiSpec(injections=self.injections, seed=self.seed))

    def check(self, subject=None, ctx=None) -> list[Violation]:
        run = None if self._analytic and self._measure else self.run()
        predicted = (self._analytic or self._default_analytic)(run)
        avf, lo, hi = (self._measure or self._default_measure)(run)
        case = (f"tinycore:{self.program} x{self.injections} "
                f"(seed {self.seed})")
        if predicted < lo - self.slack:
            return [Violation(
                self.name, case,
                f"analytical sequential AVF {predicted:.3f} undershoots "
                f"the SFI interval [{lo:.3f}, {hi:.3f}] (measured "
                f"{avf:.3f}) by more than slack={self.slack}")]
        return []

    @staticmethod
    def _default_analytic(run) -> float:
        return average_seq_avf(run.sart.result.node_avfs)

    @staticmethod
    def _default_measure(run) -> tuple[float, float, float]:
        from repro.sfi import overall_avf

        avf, (lo, hi) = overall_avf(run.sfi.result.outcomes)
        return avf, lo, hi


class DeadlineSanityOracle(Oracle):
    """Structural sanity of the error-reporting deadline distributions.

    Reads the deadline summaries a pipeline run of a tinycore program
    carries (its ACE lifetime analysis) and checks each structure's
    summary for the invariants the accumulator guarantees by
    construction:

    * quantile monotonicity — ``p50 <= p95 <= max`` and ``mean <= max``;
    * bounded support — no deadline can exceed the traced campaign
      window (``max <= cycles``);
    * mass conservation — the histogram's total cycle mass equals the
      structure's ACE bit-cycles exactly: every ACE cycle belongs to
      exactly one consumed segment, so a histogram that gained or lost
      a bin weight no longer sums to the ACE total.

    ``analysis`` is the injectable seam (program -> per-structure
    summaries); ``corrupt`` post-processes its output the way the
    seeded defect does, proving the conservation check actually reads
    the histogram mass.
    """

    name = "deadline-sanity"
    scope = SCOPE_GLOBAL

    def __init__(self, program: str = "fib",
                 analysis: Callable[[str], Mapping[str, Mapping]] | None = None,
                 corrupt: Callable[[Mapping], Mapping] | None = None):
        self.program = program
        self._analysis = analysis
        self._corrupt = corrupt

    def check(self, subject=None, ctx=None) -> list[Violation]:
        summaries = (self._analysis or self._default_analysis)(self.program)
        if self._corrupt is not None:
            summaries = self._corrupt(summaries)
        case = f"tinycore:{self.program} deadlines"
        out: list[Violation] = []
        for name in sorted(summaries):
            s = summaries[name]
            events = int(s.get("events", 0))
            p50, p95 = int(s.get("p50", 0)), int(s.get("p95", 0))
            peak, mean = int(s.get("max", 0)), float(s.get("mean", 0.0))
            cycles = int(s.get("cycles", 0))
            mass = float(s.get("mass_cycles", 0.0))
            ace = float(s.get("ace_bit_cycles", 0.0))
            if not (p50 <= p95 <= peak):
                out.append(Violation(
                    self.name, case,
                    f"{name}: quantiles not monotone "
                    f"(p50={p50}, p95={p95}, max={peak})"))
            if events and mean > peak + 1e-9:
                out.append(Violation(
                    self.name, case,
                    f"{name}: mean {mean:.3f} exceeds max {peak}"))
            if peak > cycles:
                out.append(Violation(
                    self.name, case,
                    f"{name}: max deadline {peak} exceeds the "
                    f"{cycles}-cycle campaign window"))
            if abs(mass - ace) > 1e-6 * max(1.0, ace):
                out.append(Violation(
                    self.name, case,
                    f"{name}: histogram mass {mass:.6f} != ACE "
                    f"bit-cycles {ace:.6f} (conservation broken)"))
        return out

    def _default_analysis(self, program: str) -> Mapping[str, Mapping]:
        from repro.pipeline import RunSpec, execute

        outcome = execute(RunSpec(design=f"tinycore:{program}"))
        return outcome.port_env.deadlines or {}


class DeratedSerOracle(Oracle):
    """Budgeted statistical consistency: logic-derated SER vs the beam.

    The derating companion of :class:`SfiConsistencyOracle`: the
    logic-derated model rate (per-flop ``AVF x intrinsic x derating``
    plus undarated array bits) must land inside the simulated beam
    test's Poisson interval, widened by a fractional ``slack`` on both
    sides. Derating removes the combinational-masking conservatism the
    architectural model carries, so unlike the SFI check this one is
    two-sided: a rate *below* the widened interval means the masking
    model derates too aggressively, *above* means it stopped derating.
    Both sides come from one pipeline run: the rate folds in its
    ``[derating]`` factors (:func:`repro.ser.correlation.derated_rate`),
    the measurement is its ``[beam]`` stage.

    ``derated`` (run -> model rate) and ``measure`` (run -> beam rate
    and interval) are injectable seams for mutation-kill tests; with
    both injected no run is made and they receive ``None``.
    """

    name = "derated-ser"
    scope = SCOPE_GLOBAL

    def __init__(self, program: str = "fib", exposures: int = 252,
                 slack: float = 0.25, seed: int = 2024,
                 derated: Callable[..., float] | None = None,
                 measure: Callable[..., tuple[float, float, float]] | None = None):
        self.program = program
        self.exposures = exposures
        self.slack = slack
        self.seed = seed
        self._derated = derated
        self._measure = measure

    def run(self):
        """The oracle's one pipeline run: SART, ``[derating]`` and ``[beam]``."""
        from repro.pipeline import BeamSpec, DeratingSpec
        from repro.ser.correlation import calibrated_run

        return calibrated_run(
            self.program, derating=DeratingSpec(),
            beam=BeamSpec(exposures=self.exposures, seed=self.seed))

    def check(self, subject=None, ctx=None) -> list[Violation]:
        run = None if self._derated and self._measure else self.run()
        predicted = (self._derated or self._default_derated)(run)
        rate, lo, hi = (self._measure or self._default_measure)(run)
        case = (f"tinycore:{self.program} x{self.exposures} exposures "
                f"(seed {self.seed})")
        floor, ceiling = lo * (1.0 - self.slack), hi * (1.0 + self.slack)
        if not (floor <= predicted <= ceiling):
            return [Violation(
                self.name, case,
                f"derated SER {predicted:.3e}/cycle outside the widened "
                f"beam interval [{floor:.3e}, {ceiling:.3e}] (measured "
                f"{rate:.3e} in [{lo:.3e}, {hi:.3e}], slack "
                f"{self.slack:.0%})")]
        return []

    @staticmethod
    def _default_derated(run) -> float:
        from repro.ser.correlation import derated_rate

        beam = run.spec.beam
        return derated_rate(run, flux=beam.flux, include_arrays=beam.include_arrays)

    @staticmethod
    def _default_measure(run) -> tuple[float, float, float]:
        result = run.beam.result
        lo, hi = result.rate_interval()
        return result.sdc_rate_per_cycle, lo, hi


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def default_oracles() -> list[Oracle]:
    """The shipped oracle library, in execution order."""
    return [
        RangeOracle(),
        MinResolutionOracle(),
        CtrlPinnedOracle(),
        CrossEngineOracle(),
        LoopMonotonicityOracle(),
        LaneIsolationOracle(),
        SfiConsistencyOracle(),
        DeadlineSanityOracle(),
        DeratedSerOracle(),
    ]


def oracles_by_name(oracles: list[Oracle] | None = None) -> Mapping[str, Oracle]:
    return {o.name: o for o in (oracles or default_oracles())}
