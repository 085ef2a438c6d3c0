"""SART — the Sequential AVF Resolution Tool (paper Section 5).

:func:`run_sart` executes the paper's flow end to end against a flattened
netlist (or a pre-extracted node graph):

1. extract the node graph,
2. detect loops (Section 4.3) and control registers (Section 5.1),
3. map ACE-structure bits onto RTL bits and build the annotated model,
4. bind the ACE-model port AVFs plus the injected values into a
   :class:`~repro.core.pavf.PavfEnv`,
5. propagate on the compiled engine (:mod:`repro.core.compiled`),
   monolithically or per FUB with relaxation, and
6. resolve ``AVF = MIN(forward, backward)`` per node and aggregate per FUB.

Steps 1-3 are structural and live in a reusable
:class:`~repro.core.compiled.SolvePlan` (:func:`build_plan`). The
dict-based fixpoint and the faithful walk engine implement the same
semantics as references for the oracles and equivalence tests; they run
through :func:`repro.verify.reference.run_reference`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import SartError, WarmStartDegradedWarning
from repro.core.compiled import SetEvaluator, SolvePlan, relax_compiled, resolve_ids
from repro.core.graphmodel import AvfModel, StructurePorts
from repro.core.pavf import (
    BOUNDARY,
    CONST,
    CTRL,
    LOOP,
    Atom,
    PavfEnv,
)
from repro.core.relaxation import RelaxationTrace, WarmStart
from repro.core.report import DesignReport, fub_report
from repro.core.resolve import NodeAvf
from repro.core.symbolic import ClosedForm, bind_structures
from repro.netlist.graph import NetGraph
from repro.netlist.netlist import Module


@dataclass
class SartConfig:
    """Knobs of the SART flow. Defaults follow the paper's choices.

    None of them is structural: one :class:`SolvePlan` serves every
    config, and a new config is a new environment or solve schedule.
    """

    # Injected static pAVF at loop boundaries (0.3 after the Fig. 8 sweep,
    # the paper's solution 3). Per-node measured values (solution 2, see
    # repro.core.loopchar) may override the static value individually.
    loop_pavf: float = 0.3
    loop_pavf_per_net: dict[str, float] | None = None
    # Control registers: pAVF_R "of 100%".
    ctrl_pavf: float = 1.0
    # Tie cells (conservative static source).
    const_pavf: float = 1.0
    # RTL-boundary pseudo-structure port values ("circuits that lie
    # outside of the RTL being analyzed are grouped together into one or
    # more pseudo-structures, with [their] own pAVF_R and pAVF_W values").
    # The two scalars are the defaults; per-port overrides refine them.
    boundary_in_pavf: float = 1.0
    boundary_out_pavf: float = 1.0
    boundary_overrides: dict[str, float] | None = None
    # Partitioned relaxation (Section 5.2) vs one monolithic solve.
    partition_by_fub: bool = True
    iterations: int = 20
    tol: float = 1e-9
    # "unace" resolves never-consumed nodes to AVF 0; "top" keeps 1.0.
    dangling: str = "unace"


@dataclass
class SartResult:
    """Everything a SART run produces."""

    node_avfs: dict[str, NodeAvf]
    report: DesignReport
    model: AvfModel
    env: PavfEnv
    f_sets: dict[str, frozenset[Atom]]
    b_sets: dict[str, frozenset[Atom]]
    config: SartConfig
    trace: RelaxationTrace | None = None
    elapsed_seconds: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)
    # Converged FUBIO boundary tables (partitioned runs only) —
    # the extra state a later warm start must replay verbatim; see
    # repro.core.relaxation.WarmStart.
    f_boundary: dict[str, frozenset[Atom]] | None = None
    b_boundary: dict[str, frozenset[Atom]] | None = None
    # The plan the result was solved on; None for the reference engines
    # (repro.verify.reference), which solve without one.
    plan: SolvePlan | None = None

    def closed_form(self) -> ClosedForm:
        """Closed-form equations for workload re-evaluation (Section 5.2).

        The result's sets are interned into its plan: identity hits for a
        cold solve, new ids only for the baseline sets an ECO result
        carries over.
        """
        if self.plan is None:
            raise SartError("closed forms need a result solved on a SolvePlan (run_sart)")
        intern, names = self.plan.interner.id_of, self.plan.names

        def ids(sets: dict[str, frozenset[Atom]]) -> list[int]:
            return [-1 if (s := sets.get(name)) is None else intern(s) for name in names]

        return ClosedForm(plan=self.plan, f_ids=ids(self.f_sets),
                          b_ids=ids(self.b_sets), base_env=self.env)

    def avf(self, net: str) -> float:
        return self.node_avfs[net].avf


def build_env(model: AvfModel, config: SartConfig) -> PavfEnv:
    """Bind structure atoms and injected values into an environment."""
    env = PavfEnv(unbound_default=1.0)
    env.bind_kind(LOOP, config.loop_pavf)
    env.bind_kind(CTRL, config.ctrl_pavf)
    env.bind_kind(CONST, config.const_pavf)
    if config.loop_pavf_per_net:
        for net, value in config.loop_pavf_per_net.items():
            env.bind(Atom(LOOP, net), value)
    bind_structures(env, model, model.structures)
    overrides = config.boundary_overrides or {}
    for net in model.graph.input_nets():
        env.bind(Atom(BOUNDARY, net), overrides.get(net, config.boundary_in_pavf))
    for net in model.graph.outputs:
        env.bind(Atom(BOUNDARY, net), overrides.get(net, config.boundary_out_pavf))
    return env


def build_plan(
    design: Module | NetGraph,
    structures: Mapping[str, StructurePorts] | None = None,
) -> SolvePlan:
    """Lower *design* once for many compiled SART runs.

    The plan captures everything structural — graph extraction, loop
    breaking, control-register detection, FUB partitioning, topological
    order — so ``run_sart(plan=plan, config=...)`` with any
    :class:`SartConfig` (loop/ctrl/const/boundary pAVFs, partitioning,
    iterations) skips straight to propagation. Structures are captured
    at build time.
    """
    return SolvePlan.build(design, structures)


def run_sart(
    design: Module | NetGraph | None = None,
    structures: Mapping[str, StructurePorts] | None = None,
    config: SartConfig | None = None,
    *,
    plan: SolvePlan | None = None,
    warm_start: WarmStart | None = None,
) -> SartResult:
    """Run the full SART flow and return per-node sequential AVFs.

    A :class:`SolvePlan` drives the propagation. Pass *design* and its
    *structures* to lower one, or a *plan* built by :func:`build_plan`
    to amortize the lowering across many runs; a plan carries its
    design and structures, so passing either with it is a
    :class:`~repro.errors.SartError`.

    *warm_start* (ECO mode) seeds the partitioned relaxation from a
    previous converged solution so only the dirty FUBs re-solve; build
    one with :mod:`repro.pipeline.delta`. It needs FUB partitioning on a
    multi-FUB design and raises :class:`~repro.errors.SartError`
    otherwise.
    """
    config = config or SartConfig()
    started = time.perf_counter()

    if plan is None:
        if design is None:
            raise SartError("run_sart needs a design or a plan")
        plan = build_plan(design, structures)
    elif design is not None or structures is not None:
        raise SartError(
            "run_sart takes a plan or a design with its structures, not "
            "both: the plan already carries its design and structures"
        )
    graph = plan.graph
    model = plan.model
    env = build_env(model, config)

    trace: RelaxationTrace | None = None
    f_boundary: dict[str, frozenset[Atom]] | None = None
    b_boundary: dict[str, frozenset[Atom]] | None = None
    partitioned = config.partition_by_fub and plan.n_fubs > 1
    if warm_start is not None and not partitioned:
        raise SartError(
            "warm_start requires FUB partitioning and a multi-FUB design; "
            "run cold instead"
        )
    evaluator = SetEvaluator(plan.interner, env)
    if partitioned:
        boundary_state: dict = {}
        f_ids, b_ids, trace = relax_compiled(
            plan,
            env,
            evaluator=evaluator,
            iterations=config.iterations,
            tol=config.tol,
            dangling=config.dangling,
            warm_start=warm_start,
            capture_boundary=boundary_state,
        )
        if warm_start is not None and not trace.converged:
            # A truncated warm trajectory is not comparable to a
            # truncated cold one (different starting points), so restart
            # cold to keep ECO output bit-identical with non-ECO runs.
            warnings.warn(
                "warm start did not converge in "
                f"{config.iterations} iterations; restarting cold",
                WarmStartDegradedWarning,
                stacklevel=2,
            )
            boundary_state = {}
            f_ids, b_ids, trace = relax_compiled(
                plan,
                env,
                evaluator=evaluator,
                iterations=config.iterations,
                tol=config.tol,
                dangling=config.dangling,
                capture_boundary=boundary_state,
            )
        f_boundary = boundary_state.get("f")
        b_boundary = boundary_state.get("b")
    else:
        f_ids, b_ids = plan.solve_monolithic(config.dangling)
    if (
        warm_start is not None
        and trace.warm
        and trace.converged
        and warm_start.baseline_avfs
    ):
        # Assemble the result from the baseline: only nodes of FUBs the
        # cascade actually re-solved need fresh resolution; everything
        # else is bit-identical to the seeded baseline by construction.
        resolved_set = set(trace.resolved_fub_ids)
        fub_of = plan.fub_of
        recompute = [nid for nid in range(plan.n) if fub_of[nid] in resolved_set]
        fresh = resolve_ids(
            plan, f_ids, b_ids, env, evaluator=evaluator, only=recompute
        )
        # Rebuild the tables in plan (node-id) order — the same
        # order a cold solve emits — so every downstream consumer
        # that folds over them (per-FUB averages, weighted report
        # figures) sums floats in the identical sequence.
        names, interned = plan.names, plan.interner.sets
        base_avfs = warm_start.baseline_avfs
        base_f, base_b = warm_start.f_sets, warm_start.b_sets
        node_avfs: dict[str, NodeAvf] = {}
        f_sets: dict[str, frozenset[Atom]] = {}
        b_sets: dict[str, frozenset[Atom]] = {}
        for nid in range(plan.n):
            name = names[nid]
            if fub_of[nid] in resolved_set:
                node_avfs[name] = fresh[name]
                f_sets[name] = interned[f_ids[nid]]
                b_sets[name] = interned[b_ids[nid]]
            else:
                node_avfs[name] = base_avfs[name]
                f_sets[name] = base_f[name]
                b_sets[name] = base_b[name]
    else:
        node_avfs = resolve_ids(plan, f_ids, b_ids, env, evaluator=evaluator)
        f_sets = plan.sets_dict(f_ids)
        b_sets = plan.sets_dict(b_ids)

    report = fub_report(
        node_avfs, loop_bits=len(model.loop_nets), ctrl_bits=len(model.ctrl_nets)
    )
    elapsed = time.perf_counter() - started
    stats = {
        "nodes": float(len(graph)),
        "sequentials": float(len(graph.seq_nets())),
        "loop_bits": float(len(model.loop_nets)),
        "ctrl_bits": float(len(model.ctrl_nets)),
        "structure_bits": float(len(model.struct_nodes)),
        "visited_fraction": report.visited_fraction,
    }
    if trace is not None and trace.warm:
        stats["warm"] = 1.0
        stats["warm_fubs"] = float(trace.warm_fubs)
        stats["dirty_fubs"] = float(trace.dirty_fubs)
        stats["resolved_fubs"] = float(trace.resolved_fubs)
    return SartResult(
        node_avfs=node_avfs,
        report=report,
        model=model,
        env=env,
        f_sets=f_sets,
        b_sets=b_sets,
        config=config,
        trace=trace,
        elapsed_seconds=elapsed,
        stats=stats,
        f_boundary=f_boundary,
        b_boundary=b_boundary,
        plan=plan,
    )
