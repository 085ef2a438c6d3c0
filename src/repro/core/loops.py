"""Loop detection and breaking (paper Section 4.3).

"Loops, even though they are made from sequentials, behave like
structures... values can get 'stuck', remaining resident and breaking our
1-cycle latency assumption." The paper's chosen solution (their option 3)
finds loops in the node graph, breaks them, and injects a static pAVF at
the loop-boundary nodes — 0.3 after the Figure 8 sweep.

We find strongly connected components of the node graph with an iterative
Tarjan (recursion-free: node graphs have very long paths). Every
*sequential* node inside a non-trivial SCC — or with a self edge, which is
how enabled flops appear after extraction — becomes a loop-boundary node:
a pseudo-structure where walks start and stop with the injected value.
Combinational nodes inside an SCC need no special treatment: once the
sequential loop nodes are fixed, every remaining dependency path is
acyclic (pure combinational cycles are rejected by netlist validation).
"""

from __future__ import annotations

from repro.errors import SartError
from repro.netlist.graph import NetGraph, NodeKind


def strongly_connected_components(
    graph: NetGraph, cut: frozenset[str] | set[str] = frozenset()
) -> list[list[str]]:
    """Tarjan SCCs over fanin edges, iterative. Returns lists of nets.

    Nodes in *cut* are treated as having no fan-in: pAVF walks terminate
    at ACE structures and control registers, so a cycle passing through
    one is not a propagation loop (the paper's walks "start and stop" at
    structures). Pass the structure/control nets here before classifying
    loops.
    """
    index_counter = 0
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    fanins = graph.fanins()
    empty: tuple[str, ...] = ()

    for root in fanins:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            net, child_i = work[-1]
            if child_i == 0:
                index[net] = index_counter
                lowlink[net] = index_counter
                index_counter += 1
                stack.append(net)
                on_stack.add(net)
            fanin = empty if net in cut else fanins[net]
            advanced = False
            for i in range(child_i, len(fanin)):
                child = fanin[i]
                if child not in index:
                    work[-1] = (net, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[net] = min(lowlink[net], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[net])
            if lowlink[net] == index[net]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == net:
                        break
                sccs.append(component)
    return sccs


def find_loop_nets(graph: NetGraph, cut: frozenset[str] | set[str] = frozenset()) -> set[str]:
    """Nets of sequential nodes that participate in a loop.

    A node is in a loop when its SCC has more than one member or when it
    has a self edge. Only sequential members are returned (they are the
    boundary nodes the paper injects values into); an SCC containing no
    sequential node at all would be a combinational cycle, which is a
    structural error. *cut* lists nets (structure bits, control
    registers) that break cycles because walks terminate there.
    """
    loops: set[str] = set()
    cut_set = cut if isinstance(cut, (set, frozenset)) else set(cut)
    fanins, ids, kinds = graph.fanins(), graph.ids, graph.kinds
    for component in strongly_connected_components(graph, cut_set):
        if len(component) == 1:
            # Fast path: almost every SCC is a single node, which is a
            # loop only via a self edge (and never when cut — cut nodes
            # have no fan-in, so their self edge is not traversed).
            net = component[0]
            if net in cut_set or net not in fanins[net]:
                continue
        # A multi-node SCC cannot contain cut nodes (no fan-in).
        seq = {net for net in component if kinds[ids[net]] == NodeKind.SEQ}
        if not seq:
            raise SartError(
                "combinational cycle in node graph (validation should have "
                f"caught this): {sorted(component)[:8]}"
            )
        loops.update(seq)
    return loops


def loop_statistics(graph: NetGraph, loop_nets: set[str]) -> dict[str, float]:
    """Loop inventory as the paper reports it (Section 6.1)."""
    seq_total = len(graph.seq_nets())
    return {
        "loop_bits": len(loop_nets),
        "sequential_bits": seq_total,
        "loop_fraction": (len(loop_nets) / seq_total) if seq_total else 0.0,
    }
