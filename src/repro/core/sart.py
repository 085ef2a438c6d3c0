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
from typing import Iterable, Mapping

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


class SetMap(Mapping[str, frozenset]):
    """Net name -> annotation set, read from a plan's set-id vector.

    Only the ids are held: a lookup builds the set's ``frozenset`` from
    its row. Nets whose id is negative are absent. Two maps over one
    plan compare by their ids, since the interner holds each set once.

    *carried* is ``(base, nids, memo)`` on an ECO result: the entries of
    node ids *nids* are the baseline map *base*'s sets, copied into this
    plan (:meth:`copy_into`) on the map's first use, so a re-solve that
    nobody asks for sets pays no copy.
    """

    __slots__ = ("plan", "_ids", "_carried")

    def __init__(self, plan: SolvePlan, ids: list[int], carried=None):
        self.plan, self._ids, self._carried = plan, ids, carried

    @property
    def ids(self) -> list[int]:
        """Set id per node id (-1 = absent)."""
        if self._carried is not None:
            base, nids, memo = self._carried
            self._carried = None
            base.copy_into(self.plan, nids, self._ids, memo)
        return self._ids

    def sid(self, net: str) -> int:
        """Set id of *net*'s entry in the plan's interner; -1 when absent."""
        nid = self.plan.ids.get(net)
        return -1 if nid is None else self.ids[nid]

    def copy_into(self, plan: SolvePlan, nids: Iterable[int], out: list[int],
                  memo: dict[int, int]) -> None:
        """Set ``out[nid]`` to the id in *plan* of this map's set for its net.

        Covers each node id in *nids* whose net this map holds; the rest
        of *out* is left as it is. A set crosses plans by its atoms, and
        *memo* maps this plan's set ids to *plan*'s, so a set many nets
        share is interned once; maps over one plan may share it.
        """
        names, here, ids = plan.names, self.plan.ids, self.ids
        atoms_of, intern = self.plan.interner.sorted_atoms, plan.interner.id_of
        for nid in nids:
            at = here.get(names[nid])
            if at is None or (sid := ids[at]) < 0:
                continue
            got = memo.get(sid)
            if got is None:
                got = memo[sid] = intern(atoms_of(sid))
            out[nid] = got

    def __getitem__(self, net: str) -> frozenset[Atom]:
        sid = self.sid(net)
        if sid < 0:
            raise KeyError(net)
        return frozenset(self.plan.interner.sorted_atoms(sid))

    def __contains__(self, net) -> bool:
        return self.sid(net) >= 0

    def __iter__(self):
        names = self.plan.names
        return (names[nid] for nid, sid in enumerate(self.ids) if sid >= 0)

    def __len__(self) -> int:
        return sum(sid >= 0 for sid in self.ids)

    def __eq__(self, other):
        if isinstance(other, SetMap) and other.plan is self.plan:
            return self.ids == other.ids
        return super().__eq__(other)


@dataclass
class SartResult:
    """Everything a SART run produces.

    The set tables map net names to annotation sets. On a result solved
    on a plan they are :class:`SetMap` views over the solve's set-id
    vectors; the reference engines return plain dicts.
    """

    node_avfs: dict[str, NodeAvf]
    report: DesignReport
    model: AvfModel
    env: PavfEnv
    f_sets: Mapping[str, frozenset[Atom]]
    b_sets: Mapping[str, frozenset[Atom]]
    config: SartConfig
    trace: RelaxationTrace | None = None
    elapsed_seconds: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)
    # Converged FUBIO boundary tables (partitioned runs only; TOP off
    # the exports) — the extra state a later warm start must replay
    # verbatim; see repro.core.relaxation.WarmStart.
    f_boundary: SetMap | None = None
    b_boundary: SetMap | None = None
    # The plan the result was solved on; None for the reference engines
    # (repro.verify.reference), which solve without one.
    plan: SolvePlan | None = None

    def closed_form(self) -> ClosedForm:
        """Closed-form equations for workload re-evaluation (Section 5.2).

        The equations are the solve's own set ids; reading them copies an
        ECO result's carried-over baseline sets into the plan
        (:class:`SetMap`).
        """
        if self.plan is None:
            raise SartError("closed forms need a result solved on a SolvePlan (run_sart)")
        return ClosedForm(plan=self.plan, f_ids=self.f_sets.ids,
                          b_ids=self.b_sets.ids, base_env=self.env)

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
    f_boundary: SetMap | None = None
    b_boundary: SetMap | None = None
    partitioned = config.partition_by_fub and plan.n_fubs > 1
    if warm_start is not None and not partitioned:
        raise SartError(
            "warm_start requires FUB partitioning and a multi-FUB design; "
            "run cold instead"
        )
    evaluator = SetEvaluator(plan.interner, env)
    if partitioned:
        def relax(warm: WarmStart | None):
            return relax_compiled(
                plan, env, evaluator=evaluator, iterations=config.iterations,
                tol=config.tol, dangling=config.dangling, warm_start=warm,
            )

        f_ids, b_ids, f_bnd, b_bnd, trace = relax(warm_start)
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
            f_ids, b_ids, f_bnd, b_bnd, trace = relax(None)
        f_boundary, b_boundary = SetMap(plan, f_bnd), SetMap(plan, b_bnd)
    else:
        f_ids, b_ids = plan.solve_monolithic(config.dangling)
    if warm_start is not None and trace.warm and trace.converged:
        # Assemble the result from the baseline: only nodes of FUBs the
        # cascade actually re-solved need fresh resolution; everything
        # else is bit-identical to the seeded baseline by construction.
        resolved_set = set(trace.resolved_fub_ids)
        fub_of = plan.fub_of
        recompute = [nid for nid in range(plan.n) if fub_of[nid] in resolved_set]
        fresh = resolve_ids(
            plan, f_ids, b_ids, env, evaluator=evaluator, only=recompute
        )
        # Rebuild the table in plan (node-id) order — the same
        # order a cold solve emits — so every downstream consumer
        # that folds over it (per-FUB averages, weighted report
        # figures) sums floats in the identical sequence. Untouched
        # nodes keep the baseline's sets, carried into this plan's maps.
        names, base = plan.names, warm_start.baseline
        node_avfs: dict[str, NodeAvf] = {}
        kept: list[int] = []
        for nid in range(plan.n):
            name = names[nid]
            if fub_of[nid] in resolved_set:
                node_avfs[name] = fresh[name]
            else:
                node_avfs[name] = base.node_avfs[name]
                kept.append(nid)
        carried: dict[int, int] = {}
        f_sets = SetMap(plan, f_ids, (base.f_sets, kept, carried))
        b_sets = SetMap(plan, b_ids, (base.b_sets, kept, carried))
    else:
        node_avfs = resolve_ids(plan, f_ids, b_ids, env, evaluator=evaluator)
        f_sets, b_sets = SetMap(plan, f_ids), SetMap(plan, b_ids)

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
