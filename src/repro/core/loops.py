"""Loop detection and breaking (paper Section 4.3).

"Loops, even though they are made from sequentials, behave like
structures... values can get 'stuck', remaining resident and breaking our
1-cycle latency assumption." The paper's chosen solution (their option 3)
finds loops in the node graph, breaks them, and injects a static pAVF at
the loop-boundary nodes — 0.3 after the Figure 8 sweep.

We find strongly connected components of the node graph with an iterative
Tarjan over the graph's integer fan-in CSR (recursion-free: node graphs
have very long paths). Every *sequential* node inside a non-trivial SCC —
or with a self edge, which is how enabled flops appear after extraction —
becomes a loop-boundary node: a pseudo-structure where walks start and
stop with the injected value. Combinational nodes inside an SCC need no
special treatment: once the sequential loop nodes are fixed, every
remaining dependency path is acyclic (pure combinational cycles are
rejected by netlist validation).

The solve plan's classification
(:meth:`repro.core.compiled.SolvePlan._classify`) is the one caller: it
cuts the graph at the structure bits and control registers it has
assigned first.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SartError
from repro.netlist.graph import NetGraph, NodeKind


def find_loop_nets(graph: NetGraph, cut: Iterable[str]) -> set[str]:
    """Nets of sequential nodes that participate in a loop.

    A node is in a loop when its SCC has more than one member or when it
    has a self edge. Nodes in *cut* (structure bits, control registers)
    are treated as having no fan-in: pAVF walks terminate there, so a
    cycle passing through one is not a propagation loop. Only sequential
    members are returned (they are the boundary nodes the paper injects
    values into); an SCC containing no sequential node at all is a
    combinational cycle, which raises :class:`SartError`.
    """
    n = len(graph)
    ids, names, kinds = graph.ids, graph.names, graph.kinds
    fanin_ptr, fanin_ix = graph.fanin_ptr, graph.fanin_ix
    is_cut = bytearray(n)
    for net in cut:
        nid = ids.get(net)
        if nid is not None:
            is_cut[nid] = 1

    UNSEEN = -1
    index = [UNSEEN] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = 0
    loops: set[str] = set()

    def classify(component: list[int]) -> None:
        if len(component) == 1:
            # Almost every SCC is a single node, which is a loop only via
            # a self edge (never when cut: its fan-in is not traversed).
            nid = component[0]
            if is_cut[nid]:
                return
            lo, hi = fanin_ptr[nid], fanin_ptr[nid + 1]
            if nid not in fanin_ix[lo:hi]:
                return
        seq = [names[m] for m in component if kinds[m] == NodeKind.SEQ]
        if not seq:
            raise SartError(
                "combinational cycle in node graph (validation should "
                f"have caught this): {sorted(names[m] for m in component)[:8]}"
            )
        loops.update(seq)

    for root in range(n):
        if index[root] != UNSEEN:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            nid, child_i = work[-1]
            if child_i == 0:
                index[nid] = lowlink[nid] = counter
                counter += 1
                stack.append(nid)
                on_stack[nid] = 1
            lo = fanin_ptr[nid]
            hi = lo if is_cut[nid] else fanin_ptr[nid + 1]
            advanced = False
            for i in range(lo + child_i, hi):
                child = fanin_ix[i]
                if index[child] == UNSEEN:
                    work[-1] = (nid, i - lo + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    if index[child] < lowlink[nid]:
                        lowlink[nid] = index[child]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[nid] < lowlink[parent]:
                    lowlink[parent] = lowlink[nid]
            if lowlink[nid] == index[nid]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component.append(member)
                    if member == nid:
                        break
                classify(component)
    return loops
