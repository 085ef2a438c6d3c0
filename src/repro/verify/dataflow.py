"""Dict-based fixpoint solver: the reference the compiled engine is checked against.

Solves the forward (pAVF_R, "down") and backward (pAVF_W, "up") systems of
the paper with one topological pass each. After loop breaking, every
cyclic dependency runs through a fixed node (structure bit, loop boundary,
control register, constant, primary input), so the dependency graph seen
by each direction is acyclic and a single pass reaches the fixpoint the
paper's iterated walks converge to. The faithful walk-by-walk
implementation lives in :mod:`repro.verify.walker`; equivalence of the two
is asserted in the test suite and benchmarked as an ablation.

Both solvers accept a *subset* of nets plus boundary values, which is how
:func:`relax` runs the per-FUB partitioned mode (paper Section 5.2):
inside one relaxation iteration each FUB is solved against the FUBIO
values exported by its neighbours in the previous iteration.

Production runs use :mod:`repro.core.compiled`, which lowers the same
semantics onto integer kernels. This module stays as the independent
reference for the cross-engine oracle (:mod:`repro.verify.oracles`) and
the equivalence tests; run it on a design with
:func:`repro.verify.reference.run_reference`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.graphmodel import AvfModel
from repro.core.pavf import Atom, PavfEnv, TOP_SET, union, value_of
from repro.core.relaxation import RelaxationTrace
from repro.netlist.graph import NodeKind


def solve_forward(
    model: AvfModel,
    *,
    nets: Iterable[str] | None = None,
    boundary: Mapping[str, frozenset[Atom]] | None = None,
) -> dict[str, frozenset[Atom]]:
    """Forward propagation: f(n) = union of f over fan-in.

    Fixed nodes (``model.forward_fixed``) keep their source sets. Fan-in
    nets outside *nets* take their value from *boundary*, defaulting to the
    conservative TOP (= pAVF 1.0), which is also every node's initial
    annotation in the paper (Eq 7).
    """
    graph = model.graph
    subset = set(nets) if nets is not None else None
    boundary = boundary or {}
    fixed = model.forward_fixed
    fanins = graph.fanins()

    members = subset if subset is not None else graph.names
    out: dict[str, frozenset[Atom]] = {}

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    ready: deque[str] = deque()
    for net in members:
        if net in fixed:
            out[net] = fixed[net]
            ready.append(net)
            indegree[net] = 0
            continue
        deps = [
            d
            for d in fanins[net]
            if (subset is None or d in subset) and d not in fixed
        ]
        indegree[net] = len(deps)
        if not deps:
            ready.append(net)
        for d in deps:
            dependents.setdefault(d, []).append(net)

    def value_for(driver: str) -> frozenset[Atom]:
        if driver in fixed:
            return fixed[driver]
        if subset is not None and driver not in subset:
            return boundary.get(driver, TOP_SET)
        return out[driver]

    processed = 0
    while ready:
        net = ready.popleft()
        processed += 1
        if net not in out:  # not fixed: compute from fan-in
            fanin = fanins[net]
            if not fanin:
                out[net] = frozenset()
            elif len(fanin) == 1:
                out[net] = value_for(fanin[0])
            else:
                out[net] = union(*(value_for(d) for d in fanin))
        for dep in dependents.get(net, ()):
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)

    if processed != len(indegree):
        stuck = [n for n, d in indegree.items() if d > 0][:8]
        raise RuntimeError(f"forward solve: cyclic dependencies remain at {stuck}")
    return out


def solve_backward(
    model: AvfModel,
    *,
    nets: Iterable[str] | None = None,
    boundary: Mapping[str, frozenset[Atom]] | None = None,
    dangling: str = "unace",
) -> dict[str, frozenset[Atom]]:
    """Backward propagation: b(n) = union of what each consumer passes up.

    A consumer with a fixed through-set (structure write bit, loop node,
    control register) contributes that set; an ordinary consumer
    contributes its own computed b; static sinks (memory write pins, port
    addresses, primary outputs) contribute their atoms. Consumers outside
    *nets* contribute the *boundary* value (default TOP).

    ``dangling`` controls nodes with no consumers at all: ``"unace"``
    resolves them to the empty set (a value nobody reads is un-ACE — a
    refinement the walk engine cannot express), ``"top"`` keeps the
    paper's conservative 1.0 so the two engines match exactly.
    """
    graph = model.graph
    subset = set(nets) if nets is not None else None
    boundary = boundary or {}
    through_fixed = model.contrib_through
    fanout = graph.fanout()

    members = subset if subset is not None else graph.names
    out: dict[str, frozenset[Atom]] = {}

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    ready: deque[str] = deque()
    for net in members:
        deps = [
            m
            for m in fanout.get(net, ())
            if (subset is None or m in subset) and m not in through_fixed
        ]
        indegree[net] = len(deps)
        if not deps:
            ready.append(net)
        for m in deps:
            dependents.setdefault(m, []).append(net)

    def through(consumer: str) -> frozenset[Atom]:
        if consumer in through_fixed:
            return through_fixed[consumer]
        if subset is not None and consumer not in subset:
            return boundary.get(consumer, TOP_SET)
        return out[consumer]

    processed = 0
    while ready:
        net = ready.popleft()
        processed += 1
        pieces = [through(m) for m in fanout.get(net, ())]
        sinks = model.static_sinks.get(net)
        if sinks:
            pieces.append(frozenset(sinks))
        if not pieces:
            out[net] = frozenset() if dangling == "unace" else TOP_SET
        elif len(pieces) == 1:
            out[net] = pieces[0]
        else:
            out[net] = union(*pieces)
        for dep in dependents.get(net, ()):
            indegree[dep] -= 1
            if indegree[dep] == 0:
                ready.append(dep)

    if processed != len(indegree):
        stuck = [n for n, d in indegree.items() if d > 0][:8]
        raise RuntimeError(f"backward solve: cyclic dependencies remain at {stuck}")
    return out


# ----------------------------------------------------------------------
# partitioned relaxation (paper Section 5.2)
# ----------------------------------------------------------------------

@dataclass
class FubPartition:
    """Net sets per FUB plus the FUBIO interconnect net lists.

    "It may be advantageous to partition the RTL ... For our purposes,
    the natural boundaries of the RTL are at the FUB boundaries." Each
    node's FUB comes from its ``fub`` instance attribute (inherited
    through flattening); untagged nodes form the ``""`` partition.
    """

    fubs: dict[str, set[str]] = field(default_factory=dict)
    # Nets whose forward value must be exported (sources of cross edges).
    forward_exports: set[str] = field(default_factory=set)
    # Nets whose backward value must be exported (consumers of cross edges).
    backward_exports: set[str] = field(default_factory=set)


def partition_by_fub(model: AvfModel) -> FubPartition:
    """Partition the node graph along FUB boundaries.

    For every cross-partition edge the source net's forward value is
    exported to the consuming FUB and the consumer's backward value to
    the producing FUB.
    """
    part = FubPartition()
    graph = model.graph
    names, fubs, ptr, ix = graph.names, graph.fubs, graph.fanin_ptr, graph.fanin_ix
    for net, fub in zip(names, fubs):
        part.fubs.setdefault(fub, set()).add(net)
    for nid, net in enumerate(names):
        for j in ix[ptr[nid]:ptr[nid + 1]]:
            if fubs[j] != fubs[nid]:
                part.forward_exports.add(names[j])
                part.backward_exports.add(net)
    return part


@dataclass
class RelaxationResult:
    f_sets: dict[str, frozenset[Atom]]
    b_sets: dict[str, frozenset[Atom]]
    trace: RelaxationTrace


def relax(
    model: AvfModel,
    env: PavfEnv,
    *,
    iterations: int = 20,
    tol: float = 1e-9,
    dangling: str = "unace",
) -> RelaxationResult:
    """Run the partitioned analysis to convergence (or *iterations*).

    Each iteration performs "one up and one down walk through the
    netlist for each FUB" against the FUBIO values merged at the end of
    the previous iteration (Jacobi style: a pAVF value crosses exactly
    one partition per iteration, as the paper notes). FUBIO merging
    applies the same rule as internal logic: "smallest conservative value
    is used". The trace records, per FUB and iteration, the average
    resolved pAVF of its sequential nodes, the quantity the paper plotted
    to declare 20 iterations sufficient.
    """
    partition = partition_by_fub(model)
    trace = RelaxationTrace()
    f_boundary: dict[str, frozenset[Atom]] = {}
    b_boundary: dict[str, frozenset[Atom]] = {}
    f_sets: dict[str, frozenset[Atom]] = {}
    b_sets: dict[str, frozenset[Atom]] = {}

    for iteration in range(iterations):
        new_f: dict[str, frozenset[Atom]] = {}
        new_b: dict[str, frozenset[Atom]] = {}
        for nets in partition.fubs.values():
            new_f.update(
                solve_forward(model, nets=nets, boundary=f_boundary)
            )
            new_b.update(
                solve_backward(
                    model, nets=nets, boundary=b_boundary, dangling=dangling,
                )
            )

        # FUBIO merge: export boundary values, keeping the smaller estimate.
        delta = 0.0
        for net in partition.forward_exports:
            delta = max(delta, _merge(f_boundary, net, new_f.get(net, TOP_SET), env))
        for net in partition.backward_exports:
            delta = max(delta, _merge(b_boundary, net, new_b.get(net, TOP_SET), env))

        f_sets, b_sets = new_f, new_b
        trace.iterations = iteration + 1
        trace.max_delta.append(delta)
        _record_fub_averages(model, partition, f_sets, b_sets, env, trace)
        if delta <= tol:
            trace.converged = True
            break

    return RelaxationResult(f_sets=f_sets, b_sets=b_sets, trace=trace)


def _merge(
    table: dict[str, frozenset[Atom]], net: str, new: frozenset[Atom], env: PavfEnv
) -> float:
    """MIN-rule merge; returns the magnitude of the value change."""
    old = table.get(net, TOP_SET)
    old_val = value_of(old, env)
    new_val = value_of(new, env)
    if new_val < old_val:
        table[net] = new
        return old_val - new_val
    return 0.0


def _record_fub_averages(
    model: AvfModel,
    partition: FubPartition,
    f_sets: Mapping[str, frozenset[Atom]],
    b_sets: Mapping[str, frozenset[Atom]],
    env: PavfEnv,
    trace: RelaxationTrace,
) -> None:
    ids, kinds = model.graph.ids, model.graph.kinds
    for fub, nets in partition.fubs.items():
        seq_vals = []
        for net in nets:
            if kinds[ids[net]] != NodeKind.SEQ or net in model.struct_nodes:
                continue
            f_val = value_of(f_sets.get(net, TOP_SET), env)
            b_val = value_of(b_sets.get(net, TOP_SET), env)
            seq_vals.append(min(f_val, b_val))
        avg = sum(seq_vals) / len(seq_vals) if seq_vals else 0.0
        trace.fub_avg.setdefault(fub, []).append(avg)
