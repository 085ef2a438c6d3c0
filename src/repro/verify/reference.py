"""Run the reference solvers on a design, the way ``run_sart`` runs the compiled one.

SART itself has one solve path, the compiled engine of
:mod:`repro.core.compiled`. Two older engines implement the same
semantics independently and stay only as references: the dict-based
fixpoint (:mod:`repro.verify.dataflow`, monolithic or with its own
partitioned relaxation) and the faithful walk engine
(:mod:`repro.verify.walker`). :func:`run_reference` runs either of them
through the rest of the paper's flow (graph extraction, loop breaking,
control registers, model, environment, resolution, per-FUB report) and
returns the same :class:`~repro.core.sart.SartResult` shape, so the
cross-engine oracle, the equivalence tests and the ablation benchmarks
compare like for like.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.core import controlregs, loops
from repro.core.graphmodel import StructurePorts, build_model, structure_nets
from repro.core.report import fub_report
from repro.core.resolve import resolve
from repro.core.sart import SartConfig, SartResult, build_env
from repro.errors import SartError
from repro.netlist.graph import NetGraph, extract_graph
from repro.netlist.netlist import Module
from repro.verify.dataflow import relax, solve_backward, solve_forward
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

    *engine* is ``"dataflow"`` (partitioned relaxation when
    ``config.partition_by_fub`` and the design has several FUBs, one
    monolithic fixpoint otherwise) or ``"walk"`` (always monolithic; the
    rounds of walks used are reported as ``stats["walker_rounds"]``).
    """
    if engine not in (DATAFLOW, WALK):
        raise SartError(f"unknown reference engine {engine!r}; "
                        f"have {DATAFLOW!r}, {WALK!r}")
    config = config or SartConfig()
    started = time.perf_counter()
    graph = design if isinstance(design, NetGraph) else extract_graph(design)

    # Structure bits and control registers terminate walks, so cycles
    # passing through them are not propagation loops: identify them
    # before loop classification.
    struct_nets = structure_nets(graph)
    ctrl_nets = (
        controlregs.find_control_registers(graph, patterns=config.ctrl_patterns)
        if config.detect_ctrl
        else set()
    )
    loop_nets = loops.find_loop_nets(graph, cut=struct_nets | ctrl_nets)
    model = build_model(
        graph,
        structures,
        loop_nets=loop_nets,
        ctrl_nets=ctrl_nets,
        port_traffic_on_addresses=config.port_traffic_on_addresses,
    )
    env = build_env(model, config)

    trace = None
    stats: dict[str, float] = {}
    if engine == WALK:
        walker = WalkEngine(model, env)
        f_sets = fill_unvisited(walker.run_forward(), graph.nodes)
        b_sets = fill_unvisited(walker.run_backward(), graph.nodes)
        stats["walker_rounds"] = float(walker.rounds_used)
    elif config.partition_by_fub and len(graph.nets_by_fub()) > 1:
        relaxed = relax(
            model,
            env,
            iterations=config.iterations,
            tol=config.tol,
            max_terms=config.max_terms,
            dangling=config.dangling,
        )
        f_sets, b_sets, trace = relaxed.f_sets, relaxed.b_sets, relaxed.trace
    else:
        f_sets = solve_forward(model, max_terms=config.max_terms)
        b_sets = solve_backward(
            model, max_terms=config.max_terms, dangling=config.dangling
        )

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
        trace=trace,
        elapsed_seconds=time.perf_counter() - started,
        stats=stats,
    )
