"""Run the reference solvers on a design, the way ``run_sart`` runs the compiled one.

SART itself has one solve path, the compiled engine of
:mod:`repro.core.compiled`. Two older engines implement the same
propagation semantics independently and stay only as references: the
dict-based fixpoint (:mod:`repro.verify.dataflow`) and the faithful walk
engine (:mod:`repro.verify.walker`). :func:`run_reference` runs either
of them monolithically through the rest of the paper's flow (graph
extraction, the solve plan's one classification of every node with its
loop breaking and control registers, environment, resolution, per-FUB
report) and returns the same :class:`~repro.core.sart.SartResult`
shape, so the cross-engine oracle, the equivalence tests and the
ablation benchmarks compare propagation engines on one classification.
The engines read the plan's fixed sets back as ``{net: frozenset}``
tables and propagate by name. Its resolution phase is :func:`resolve`,
the dict-keyed reference of :func:`repro.core.compiled.resolve_ids`.

:func:`run_relaxation` runs the paper's per-FUB relaxation (Section 5.2)
cold on a plan and resolves it like ``run_sart``: the relaxation-fixpoint
oracle checks that it lands on the monolithic solve, and the convergence
study and the ablation benchmarks read its trace.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.core.compiled import SetEvaluator, SolvePlan, relax_compiled, resolve_ids
from repro.core.graphmodel import StructurePorts
from repro.core.pavf import TOP, Atom, PavfEnv, value_of
from repro.core.resolve import ROLE_CTRL, ROLE_LOOP, ROLE_MEM, ROLE_STRUCT, NodeAvf
from repro.core.sart import (
    SartConfig,
    SartResult,
    SetMap,
    build_env,
    build_plan,
    sart_result,
)
from repro.errors import SartError
from repro.netlist.graph import NetGraph
from repro.netlist.netlist import Module
from repro.verify.dataflow import solve_backward, solve_forward
from repro.verify.walker import WalkEngine, fill_unvisited

DATAFLOW = "dataflow"
WALK = "walk"


def run_reference(
    design: Module | NetGraph,
    structures: Mapping[str, StructurePorts] | None = None,
    config: SartConfig | None = None,
    *,
    engine: str = DATAFLOW,
) -> SartResult:
    """Run the SART flow on *design* with a reference engine.

    *engine* is ``"dataflow"`` (one monolithic fixpoint) or ``"walk"``
    (the rounds of walks used are reported as
    ``stats["walker_rounds"]``). The design is classified by
    :func:`~repro.core.sart.build_plan`, whose fixed sets the engine
    reads back by net name; the result carries that plan, with plain
    dicts as its set tables.
    """
    if engine not in (DATAFLOW, WALK):
        raise SartError(f"unknown reference engine {engine!r}; "
                        f"have {DATAFLOW!r}, {WALK!r}")
    config = config or SartConfig()
    started = time.perf_counter()
    plan = build_plan(design, structures)
    graph = plan.graph
    env = build_env(plan, config)
    fixed, through, sinks = (dict(SetMap(plan, ids))
                             for ids in (plan.fwd_fixed, plan.through, plan.sink))

    if engine == WALK:
        walker = WalkEngine(graph, fixed, through, sinks, env)
        f_sets = fill_unvisited(walker.run_forward(), graph.names)
        b_sets = fill_unvisited(walker.run_backward(), graph.names)
    else:
        f_sets = solve_forward(graph, fixed)
        b_sets = solve_backward(graph, through, sinks, dangling=config.dangling)

    node_avfs = resolve(plan, f_sets, b_sets, env)
    result = sart_result(plan, config, env, node_avfs, f_sets, b_sets,
                         started=started)
    if engine == WALK:
        result.stats["walker_rounds"] = float(walker.rounds_used)
    return result


def run_relaxation(
    plan: SolvePlan,
    config: SartConfig | None = None,
    *,
    iterations: int = 20,
) -> SartResult:
    """A cold per-FUB relaxation of *plan*, resolved into a SartResult.

    Every FUB starts dirty against TOP boundaries and the run stops at
    convergence or after *iterations* (the paper's 20); ``trace`` holds
    its record. Converged, its sets and node AVFs are the monolithic
    solve's (``run_sart(plan=plan, config=config)``).
    """
    started = time.perf_counter()
    config = config or SartConfig()
    env = build_env(plan, config)
    evaluator = SetEvaluator(plan.interner, env)
    f_ids, b_ids, trace = relax_compiled(
        plan, env, evaluator=evaluator, iterations=iterations,
        dangling=config.dangling,
    )
    node_avfs = resolve_ids(plan, f_ids, b_ids, env, evaluator=evaluator)
    return sart_result(plan, config, env, node_avfs, SetMap(plan, f_ids),
                       SetMap(plan, b_ids), trace=trace, started=started)


def resolve(
    plan: SolvePlan,
    f_sets: Mapping[str, frozenset[Atom]],
    b_sets: Mapping[str, frozenset[Atom]],
    env: PavfEnv,
) -> dict[str, NodeAvf]:
    """Compute the final per-node AVF from the two directional estimates,
    with each node's role as *plan* classified it."""
    out: dict[str, NodeAvf] = {}
    graph = plan.graph
    for nid, net in enumerate(graph.names):
        f_set, b_set = f_sets.get(net), b_sets.get(net)
        f_val = value_of(f_set, env) if f_set is not None else 1.0
        b_val = value_of(b_set, env) if b_set is not None else 1.0
        avf = min(f_val, b_val)
        visited = not (
            (f_set is None or TOP in f_set) and (b_set is None or TOP in b_set)
        )
        role = plan.role_l[nid]
        if role == ROLE_STRUCT:
            visited = True
            ports = plan.structures.get(plan.special_l[nid])
            if ports is not None and ports.avf is not None:
                avf = ports.avf
        elif role in (ROLE_LOOP, ROLE_CTRL):
            # Loop boundaries and control registers are structure-like:
            # their AVF is the injected value, not an estimate.
            visited, avf = True, env.lookup(plan.special_l[nid])
        elif role == ROLE_MEM:
            visited = True
        out[net] = NodeAvf(net, graph.kinds[nid], graph.fubs[nid], role, avf,
                           f_val, b_val, visited)
    return out
