"""Dict-based fixpoint solver: the reference the compiled engine is checked against.

Solves the forward (pAVF_R, "down") and backward (pAVF_W, "up") systems of
the paper with one topological pass each. After loop breaking, every
cyclic dependency runs through a fixed node (structure bit, loop boundary,
control register, constant, primary input), so the dependency graph seen
by each direction is acyclic and a single pass reaches the fixpoint the
paper's iterated walks converge to. The faithful walk-by-walk
implementation lives in :mod:`repro.verify.walker`; equivalence of the two
is asserted in the test suite and benchmarked as an ablation.

Production runs use :mod:`repro.core.compiled`, which lowers the same
semantics onto integer kernels. This module stays as the independent
reference for the cross-engine oracle (:mod:`repro.verify.oracles`) and
the equivalence tests; run it on a design with
:func:`repro.verify.reference.run_reference`, which reads the fixed sets
of the solve plan's classification back as ``{net: frozenset}`` tables.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.core.pavf import Atom, TOP_SET, union
from repro.netlist.graph import NetGraph

# Fixed sets by net name: a solve plan's set-id columns read back.
SetTable = Mapping[str, frozenset[Atom]]


def solve_forward(graph: NetGraph, fixed: SetTable) -> dict[str, frozenset[Atom]]:
    """Forward propagation: f(n) = union of f over fan-in.

    Fixed nodes (the nets of *fixed*) keep their source sets.
    """
    fanins = graph.fanins()

    out: dict[str, frozenset[Atom]] = {}

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    ready: deque[str] = deque()
    for net in graph.names:
        if net in fixed:
            out[net] = fixed[net]
            ready.append(net)
            indegree[net] = 0
            continue
        deps = [d for d in fanins[net] if d not in fixed]
        indegree[net] = len(deps)
        if not deps:
            ready.append(net)
        for d in deps:
            dependents.setdefault(d, []).append(net)

    def value_for(driver: str) -> frozenset[Atom]:
        if driver in fixed:
            return fixed[driver]
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
    graph: NetGraph,
    through_fixed: SetTable,
    sinks: SetTable,
    *,
    dangling: str = "unace",
) -> dict[str, frozenset[Atom]]:
    """Backward propagation: b(n) = union of what each consumer passes up.

    A consumer with a fixed through-set in *through_fixed* (structure
    write bit, loop node, control register) contributes that set; an
    ordinary consumer contributes its own computed b; the static *sinks*
    of a net (memory write pins, port addresses, primary outputs)
    contribute their atoms.

    ``dangling`` controls nodes with no consumers at all: ``"unace"``
    resolves them to the empty set (a value nobody reads is un-ACE — a
    refinement the walk engine cannot express), ``"top"`` keeps the
    paper's conservative 1.0 so the two engines match exactly.
    """
    fanout = graph.fanout()

    out: dict[str, frozenset[Atom]] = {}

    indegree: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    ready: deque[str] = deque()
    for net in graph.names:
        deps = [m for m in fanout.get(net, ()) if m not in through_fixed]
        indegree[net] = len(deps)
        if not deps:
            ready.append(net)
        for m in deps:
            dependents.setdefault(m, []).append(net)

    def through(consumer: str) -> frozenset[Atom]:
        if consumer in through_fixed:
            return through_fixed[consumer]
        return out[consumer]

    processed = 0
    while ready:
        net = ready.popleft()
        processed += 1
        pieces = [through(m) for m in fanout.get(net, ())]
        if net in sinks:
            pieces.append(sinks[net])
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
