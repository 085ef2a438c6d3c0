"""Run the reference solvers on a design, the way ``run_sart`` runs the compiled one.

SART itself has one solve path, the compiled engine of
:mod:`repro.core.compiled`. Two older engines implement the same
propagation semantics independently and stay only as references: the
dict-based fixpoint (:mod:`repro.verify.dataflow`) and the faithful walk
engine (:mod:`repro.verify.walker`). :func:`run_reference` runs either
of them monolithically through the rest of the paper's flow (graph
extraction, the one front end :func:`~repro.core.graphmodel.build_model`
with its loop breaking and control registers, environment, resolution,
per-FUB report) and returns the same :class:`~repro.core.sart.SartResult`
shape, so the cross-engine oracle, the equivalence tests and the
ablation benchmarks compare propagation engines on one model. Its
resolution phase is :func:`resolve`, the dict-keyed reference of
:func:`repro.core.compiled.resolve_ids`.

:func:`run_relaxation` runs the paper's per-FUB relaxation (Section 5.2)
cold on a plan and resolves it like ``run_sart``: the relaxation-fixpoint
oracle checks that it lands on the monolithic solve, and the convergence
study and the ablation benchmarks read its trace.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.core.compiled import SetEvaluator, SolvePlan, relax_compiled, resolve_ids
from repro.core.graphmodel import AvfModel, StructurePorts, build_model
from repro.core.pavf import CTRL, LOOP, TOP, Atom, PavfEnv, value_of
from repro.core.report import fub_report
from repro.core.resolve import (
    ROLE_CONST,
    ROLE_CTRL,
    ROLE_INPUT,
    ROLE_LOGIC,
    ROLE_LOOP,
    ROLE_MEM,
    ROLE_STRUCT,
    NodeAvf,
)
from repro.core.sart import SartConfig, SartResult, SetMap, build_env, sart_result
from repro.errors import SartError
from repro.netlist.graph import NetGraph, NodeKind, extract_graph
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
    ``stats["walker_rounds"]``).
    """
    if engine not in (DATAFLOW, WALK):
        raise SartError(f"unknown reference engine {engine!r}; "
                        f"have {DATAFLOW!r}, {WALK!r}")
    config = config or SartConfig()
    started = time.perf_counter()
    graph = design if isinstance(design, NetGraph) else extract_graph(design)
    model = build_model(graph, structures)
    env = build_env(model, config)

    stats: dict[str, float] = {}
    if engine == WALK:
        walker = WalkEngine(model, env)
        f_sets = fill_unvisited(walker.run_forward(), graph.names)
        b_sets = fill_unvisited(walker.run_backward(), graph.names)
        stats["walker_rounds"] = float(walker.rounds_used)
    else:
        f_sets = solve_forward(model)
        b_sets = solve_backward(model, dangling=config.dangling)

    node_avfs = resolve(model, f_sets, b_sets, env)
    report = fub_report(
        node_avfs, loop_bits=len(model.loop_nets), ctrl_bits=len(model.ctrl_nets)
    )
    return SartResult(
        node_avfs=node_avfs,
        report=report,
        model=model,
        env=env,
        f_sets=f_sets,
        b_sets=b_sets,
        config=config,
        elapsed_seconds=time.perf_counter() - started,
        stats=stats,
    )


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
    env = build_env(plan.model, config)
    evaluator = SetEvaluator(plan.interner, env)
    f_ids, b_ids, trace = relax_compiled(
        plan, env, evaluator=evaluator, iterations=iterations,
        dangling=config.dangling,
    )
    node_avfs = resolve_ids(plan, f_ids, b_ids, env, evaluator=evaluator)
    return sart_result(plan, config, env, node_avfs, SetMap(plan, f_ids),
                       SetMap(plan, b_ids), trace=trace, started=started)


def resolve(
    model: AvfModel,
    f_sets: Mapping[str, frozenset[Atom]],
    b_sets: Mapping[str, frozenset[Atom]],
    env: PavfEnv,
) -> dict[str, NodeAvf]:
    """Compute the final per-node AVF from the two directional estimates."""
    out: dict[str, NodeAvf] = {}
    graph = model.graph
    for net, kind, fub in zip(graph.names, graph.kinds, graph.fubs):
        f_set, b_set = f_sets.get(net), b_sets.get(net)
        f_val = value_of(f_set, env) if f_set is not None else 1.0
        b_val = value_of(b_set, env) if b_set is not None else 1.0
        avf = min(f_val, b_val)
        visited = not (
            (f_set is None or TOP in f_set) and (b_set is None or TOP in b_set)
        )
        if net in model.struct_nodes:
            role, visited = ROLE_STRUCT, True
            ports = model.structures.get(model.struct_nodes[net][0])
            if ports is not None and ports.avf is not None:
                avf = ports.avf
        elif net in model.loop_nets:
            role, visited, avf = ROLE_LOOP, True, env.lookup(Atom(LOOP, net))
        elif net in model.ctrl_nets:
            # Control registers are structure-like: their AVF is the
            # injected read-port value (100 % by default), not an estimate.
            role, visited, avf = ROLE_CTRL, True, env.lookup(Atom(CTRL, net))
        elif kind == NodeKind.CONST:
            role = ROLE_CONST
        elif kind == NodeKind.INPUT:
            role = ROLE_INPUT
        elif kind == NodeKind.MEM_RDATA:
            role, visited = ROLE_MEM, True
        else:
            role = ROLE_LOGIC
        out[net] = NodeAvf(net, kind, fub, role, avf, f_val, b_val, visited)
    return out
