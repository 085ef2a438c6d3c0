"""SART — the Sequential AVF Resolution Tool (paper Section 5).

:func:`run_sart` executes the paper's flow end to end against a flattened
netlist (or a pre-extracted node graph):

1. extract the node graph,
2. map ACE-structure bits onto RTL bits, and detect control registers
   (Section 5.1) and loops (Section 4.3),
3. bind the ACE-model port AVFs plus the injected values into a
   :class:`~repro.core.pavf.PavfEnv`,
4. propagate on the compiled engine (:mod:`repro.core.compiled`):
   one monolithic solve, cached on the plan, and
5. resolve ``AVF = MIN(forward, backward)`` per node and aggregate per FUB.

Steps 1-2 are structural and live in a reusable
:class:`~repro.core.compiled.SolvePlan` (:func:`build_plan`), which
classifies every node once into its per-node columns. The
dict-based fixpoint and the faithful walk engine implement the same
semantics as references for the oracles and equivalence tests; they run
through :func:`repro.verify.reference.run_reference`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import SartError
from repro.core.compiled import SolvePlan, resolve_ids
from repro.core.graphmodel import StructurePorts
from repro.core.pavf import BOUNDARY, LOOP, Atom, PavfEnv
from repro.core.relaxation import RelaxationTrace
from repro.core.report import DesignReport, fub_report
from repro.core.resolve import ROLE_CTRL, ROLE_LOOP, ROLE_STRUCT, NodeAvf
from repro.core.symbolic import ClosedForm, bind_structures
from repro.netlist.graph import NetGraph
from repro.netlist.netlist import Module


@dataclass
class SartConfig:
    """Knobs of the SART flow. Defaults follow the paper's choices.

    None of them is structural: one :class:`SolvePlan` serves every
    config, and a new config is a new environment. Control registers
    (pAVF_R "of 100%", Section 5.1) and tie cells (a conservative static
    source) read the environment's unbound default of 1.0.
    """

    # Injected static pAVF at loop boundaries (0.3 after the Fig. 8 sweep,
    # the paper's solution 3). Per-node measured values (solution 2, see
    # repro.core.loopchar) may override the static value individually.
    loop_pavf: float = 0.3
    loop_pavf_per_net: dict[str, float] | None = None
    # RTL-boundary pseudo-structure port values ("circuits that lie
    # outside of the RTL being analyzed are grouped together into one or
    # more pseudo-structures, with [their] own pAVF_R and pAVF_W values").
    # The two scalars are the defaults; per-port overrides refine them.
    boundary_in_pavf: float = 1.0
    boundary_out_pavf: float = 1.0
    boundary_overrides: dict[str, float] | None = None
    # "unace" resolves never-consumed nodes to AVF 0; "top" keeps 1.0.
    dangling: str = "unace"


class SetMap(Mapping[str, frozenset]):
    """Net name -> annotation set, read from a plan's set-id vector.

    Only the ids (:attr:`ids`, one set id per node id) are held: a
    lookup builds the set's ``frozenset`` from its row. Nets whose id is
    negative are absent. Two maps over one plan compare by their ids,
    since the interner holds each set once.
    """

    __slots__ = ("plan", "ids")

    def __init__(self, plan: SolvePlan, ids: list[int]):
        self.plan, self.ids = plan, ids

    def sid(self, net: str) -> int:
        """Set id of *net*'s entry in the plan's interner; -1 when absent."""
        nid = self.plan.ids.get(net)
        return -1 if nid is None else self.ids[nid]

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
    vectors; the reference engines (:mod:`repro.verify.reference`)
    return plain dicts. *plan* is the plan that classified the design;
    a result with :class:`SetMap` tables was solved on it too.
    """

    node_avfs: dict[str, NodeAvf]
    report: DesignReport
    plan: SolvePlan
    env: PavfEnv
    f_sets: Mapping[str, frozenset[Atom]]
    b_sets: Mapping[str, frozenset[Atom]]
    config: SartConfig
    # The relaxation's record; set on repro.verify.reference.run_relaxation's
    # result only.
    trace: RelaxationTrace | None = None
    elapsed_seconds: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)

    def closed_form(self) -> ClosedForm:
        """Closed-form equations for workload re-evaluation (Section 5.2).

        The equations are the solve's own set ids.
        """
        if not isinstance(self.f_sets, SetMap):
            raise SartError("closed forms need a result solved on a SolvePlan (run_sart)")
        return ClosedForm(plan=self.plan, f_ids=self.f_sets.ids,
                          b_ids=self.b_sets.ids, base_env=self.env)

    def avf(self, net: str) -> float:
        return self.node_avfs[net].avf


def build_env(plan: SolvePlan, config: SartConfig) -> PavfEnv:
    """Bind structure atoms and injected values into an environment."""
    env = PavfEnv(unbound_default=1.0)
    env.bind_kind(LOOP, config.loop_pavf)
    if config.loop_pavf_per_net:
        for net, value in config.loop_pavf_per_net.items():
            env.bind(Atom(LOOP, net), value)
    bind_structures(env, plan.atom_bindings, plan.structures)
    overrides = config.boundary_overrides or {}
    for net in plan.graph.input_nets():
        env.bind(Atom(BOUNDARY, net), overrides.get(net, config.boundary_in_pavf))
    for net in plan.graph.outputs:
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
    :class:`SartConfig` (loop/boundary pAVFs) skips straight
    to propagation. Structures are captured at build time.
    """
    return SolvePlan.build(design, structures)


def run_sart(
    design: Module | NetGraph | None = None,
    structures: Mapping[str, StructurePorts] | None = None,
    config: SartConfig | None = None,
    *,
    plan: SolvePlan | None = None,
) -> SartResult:
    """Run the full SART flow and return per-node sequential AVFs.

    A :class:`SolvePlan` drives the propagation. Pass *design* and its
    *structures* to lower one, or a *plan* built by :func:`build_plan`
    to amortize the lowering across many runs; a plan carries its
    design and structures, so passing either with it is a
    :class:`~repro.errors.SartError`.

    The solve is the plan's cached monolithic fixpoint, re-evaluated
    under the *config*'s environment.
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
    env = build_env(plan, config)
    f_ids, b_ids = plan.solve_monolithic(config.dangling)
    node_avfs = resolve_ids(plan, f_ids, b_ids, env)
    return sart_result(plan, config, env, node_avfs, SetMap(plan, f_ids),
                       SetMap(plan, b_ids), started=started)


def sart_result(
    plan: SolvePlan,
    config: SartConfig,
    env: PavfEnv,
    node_avfs: dict[str, NodeAvf],
    f_sets: Mapping[str, frozenset[Atom]],
    b_sets: Mapping[str, frozenset[Atom]],
    *,
    trace: RelaxationTrace | None = None,
    started: float,
) -> SartResult:
    """The :class:`SartResult` of a solve classified by *plan*: its
    per-FUB report and run statistics around the resolved *node_avfs*
    and set tables.

    *started* is the :func:`time.perf_counter` reading the solve began
    at.
    """
    role_l = plan.role_l
    loop_bits, ctrl_bits = role_l.count(ROLE_LOOP), role_l.count(ROLE_CTRL)
    report = fub_report(node_avfs, loop_bits=loop_bits, ctrl_bits=ctrl_bits)
    elapsed = time.perf_counter() - started
    stats = {
        "nodes": float(len(plan.graph)),
        "sequentials": float(len(plan.graph.seq_nets())),
        "loop_bits": float(loop_bits),
        "ctrl_bits": float(ctrl_bits),
        "structure_bits": float(role_l.count(ROLE_STRUCT)),
        "visited_fraction": report.visited_fraction,
    }
    return SartResult(
        node_avfs=node_avfs,
        report=report,
        plan=plan,
        env=env,
        f_sets=f_sets,
        b_sets=b_sets,
        config=config,
        trace=trace,
        elapsed_seconds=elapsed,
        stats=stats,
    )
