"""Faithful walk-based propagation engine (paper Section 4.1).

This engine reproduces the paper's mechanics literally:

* a **walk** starts from one source (a structure read-port bit for the
  forward phase, a structure write-port bit for the backward phase) and
  traverses the node graph depth-first;
* a walk terminates at an ACE structure, an RTL boundary, a loop-boundary
  node or "a node already visited during this walk" (per-walk visited set,
  which "automatically breaks" graph loops);
* at a logical join the new annotation is the union of the annotations of
  **all** inputs — when any input is still unannotated "the pAVF ... cannot
  be determined without further information, so the walk ends here" and a
  later walk (or a later round) completes it;
* the node update rule is Eq 7: nodes start at the conservative TOP
  (pAVF 1.0) and accept a new annotation only when its value is lower.

Rounds of walks repeat until a full round changes nothing. On a monolithic
graph the result provably matches the single-pass fixpoint of
:mod:`repro.verify.dataflow` for every node both engines annotate; nodes no
walk can reach keep TOP here (they are the paper's unvisited ~2 %), whereas
the dataflow engine resolves them exactly. The test suite pins both facts.

Production runs use the compiled engine; this one is kept as a reference
for the walk-agreement tests and the walk-vs-fixpoint ablation. Run it on
a design with :func:`repro.verify.reference.run_reference`.
"""

from __future__ import annotations

from repro.core.graphmodel import AvfModel
from repro.core.pavf import Atom, PavfEnv, TOP_SET, union, value_of

_EPS = 1e-12


class WalkEngine:
    """Runs forward and backward walk rounds over a model."""

    def __init__(self, model: AvfModel, env: PavfEnv, max_rounds: int = 100):
        self.model = model
        self.env = env
        self.max_rounds = max_rounds
        self.rounds_used = 0

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def run_forward(self) -> dict[str, frozenset[Atom]]:
        """All forward walks to fixpoint; returns net -> annotation."""
        model = self.model
        fanout = model.graph.fanout()
        fixed = model.forward_fixed
        annotations: dict[str, frozenset[Atom]] = dict(fixed)
        sources = list(fixed)

        for round_no in range(self.max_rounds):
            changed = False
            for source in sources:
                if self._walk_forward(source, annotations, fanout):
                    changed = True
            self.rounds_used = round_no + 1
            if not changed:
                break
        return annotations

    def _walk_forward(self, source, annotations, fanout) -> bool:
        model = self.model
        env = self.env
        nodes = model.graph.nodes
        fixed = model.forward_fixed
        changed = False
        visited = {source}
        stack = [source]
        while stack:
            current = stack.pop()
            for consumer in fanout.get(current, ()):
                if consumer in visited:
                    continue  # loop within this walk: terminate this path
                visited.add(consumer)
                if consumer in fixed:
                    continue  # walks stop at structures / injected nodes
                pieces = []
                complete = True
                for driver in nodes[consumer].fanin:
                    annot = annotations.get(driver)
                    if annot is None:
                        complete = False
                        break
                    pieces.append(annot)
                if not complete:
                    continue  # "the walk ends here"
                new = union(*pieces) if pieces else frozenset()
                cur = annotations.get(consumer)
                if cur is None or value_of(new, env) < value_of(cur, env) - _EPS:
                    annotations[consumer] = new
                    changed = True
                stack.append(consumer)
        return changed

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def run_backward(self) -> dict[str, frozenset[Atom]]:
        """All backward walks to fixpoint; returns net -> annotation."""
        model = self.model
        fanout = model.graph.fanout()
        through_fixed = model.contrib_through
        annotations: dict[str, frozenset[Atom]] = {}

        # A backward walk starts at each structure write-port bit: the nets
        # driving a fixed-through consumer, and the nets with static sinks
        # (memory pins, primary outputs). Control registers contribute the
        # empty set, i.e. their write-port walks are omitted (Section 5.1).
        sources: list[str] = list(model.static_sinks)
        for net, node in model.graph.nodes.items():
            if net in through_fixed and through_fixed[net]:
                sources.extend(d for d in node.fanin)
        sources = list(dict.fromkeys(sources))

        for round_no in range(self.max_rounds):
            changed = False
            for source in sources:
                if self._walk_backward(source, annotations, fanout):
                    changed = True
            self.rounds_used = max(self.rounds_used, round_no + 1)
            if not changed:
                break
        return annotations

    def _walk_backward(self, source, annotations, fanout) -> bool:
        model = self.model
        env = self.env
        nodes = model.graph.nodes
        through_fixed = model.contrib_through
        changed = False
        visited: set[str] = set()
        stack = [source]
        while stack:
            current = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            if current in through_fixed:
                # Structure bit / loop boundary / control register: the
                # walk stops here without annotating (measured or injected
                # values win over estimates).
                continue
            pieces = []
            complete = True
            for consumer in fanout.get(current, ()):
                if consumer in through_fixed:
                    pieces.append(through_fixed[consumer])
                    continue
                annot = annotations.get(consumer)
                if annot is None:
                    complete = False
                    break
                pieces.append(annot)
            if not complete:
                continue  # "the walk ends here"
            sinks = model.static_sinks.get(current)
            if sinks:
                pieces.append(frozenset(sinks))
            new = union(*pieces) if pieces else frozenset()
            cur = annotations.get(current)
            if cur is None or value_of(new, env) < value_of(cur, env) - _EPS:
                annotations[current] = new
                changed = True
            for driver in nodes[current].fanin:
                if driver not in visited:
                    stack.append(driver)
        return changed

    # ------------------------------------------------------------------
    def coverage(self, annotations: dict[str, frozenset[Atom]]) -> float:
        """Fraction of nodes annotated (the paper's 'visited' metric)."""
        total = len(self.model.graph.nodes)
        return len(annotations) / total if total else 1.0


def fill_unvisited(
    annotations: dict[str, frozenset[Atom]], nets, default: frozenset[Atom] = TOP_SET
) -> dict[str, frozenset[Atom]]:
    """Complete a walk result with the conservative TOP for unvisited nets."""
    out = dict(annotations)
    for net in nets:
        out.setdefault(net, default)
    return out
