"""Design deltas: which FUBs an edit changes (``repro-sart diff``).

The whole-design cache treats any netlist edit as total invalidation.
This module reports an edit at the paper's own unit of partitioning,
the FUB, so a reader can see which FUBs a netlist change touches and
which FUBs' solutions it can reach. It reports; it solves nothing.

* :func:`fub_fingerprints` hashes each FUB's *solve-relevant* structure
  out of a built :class:`~repro.core.compiled.SolvePlan` — per node: its
  classification (kind/role/mode/special), its fixed annotation sets,
  and the interface it reads (fan-in names plus their forward-fixed
  sets; fan-out names plus their through/sink sets). Hashing the plan
  rather than the raw netlist means global analyses (loop breaking,
  control-register detection) are already folded in: an edit in FUB *G*
  that flips a net of FUB *F* from loop-boundary to plain sequential
  changes F's fingerprint too, exactly because it changes F's solve.

* :func:`diff_plans` compares two plans into changed/added/removed FUBs
  plus the **reachable dirty set** — the static over-approximation of
  the FUBs whose converged solution can differ. Reachability runs over
  the plan's *relaxation dependency graph*
  (``f_importers``/``b_importers``), not raw connectivity: fixed nodes
  (loop boundaries, control registers, structures) are read from their
  injected sets rather than from FUBIO boundaries, so they cut the
  graph. Dirtiness is per direction — a FUB's forward fixpoint depends
  only on its forward-ancestors, its backward fixpoint only on its
  backward-descendants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.compiled import SolvePlan
from repro.core.pavf import Atom

_SEP = "\x1f"


def _atoms_repr(plan: SolvePlan, sid: int) -> str:
    """Stable text form of an interned set (``-`` = not fixed)."""
    if sid < 0:
        return "-"
    return ";".join(
        f"{a.kind}:{a.name}:{a.bit}" for a in plan.interner.sorted_atoms(sid)
    )


def _special_repr(special: object) -> str:
    if special is None:
        return ""
    if isinstance(special, Atom):
        return f"a:{special.kind}:{special.name}:{special.bit}"
    return f"s:{special}"


def fub_fingerprints(plan: SolvePlan) -> dict[str, str]:
    """Per-FUB structural sub-fingerprints of a built plan.

    Each FUB hashes, per node in name order: the node's classification
    and fixed sets, plus its read interface — fan-in names with their
    forward-fixed sets (the forward kernel reads a fixed fan-in's set
    directly, bypassing FUBIO) and fan-out names with their through/sink
    sets (the backward kernel reads consumers' contribution sets the
    same way). Two plans assign a FUB the same fingerprint iff its
    per-node solve functions are identical, regardless of node ids,
    schedule order, or anything outside the FUB and its fixed interface.
    """
    n = plan.n
    names = plan.names
    kind_l, role_l, mode_l = plan.kind_l, plan.role_l, plan.mode_l
    special_l = plan.special_l
    fwd_fixed, through, sink = plan.fwd_fixed, plan.through, plan.sink
    fanin_ptr, fanin_ix = plan.fanin_ptr, plan.fanin_ix
    fanout_ptr, fanout_ix = plan.fanout_ptr, plan.fanout_ix
    fub_of, fub_names = plan.fub_of, plan.fub_names

    lines: list[list[str]] = [[] for _ in range(plan.n_fubs)]
    for nid in range(n):
        # The neighbor's FUB is part of the interface: whether a fan-in
        # is read from the local pass or a FUBIO boundary (and whether a
        # fan-out creates an export) depends on which side of the
        # partition it sits, even when its name is unchanged.
        fanins = sorted(
            f"{names[d]}@{fub_names[fub_of[d]]}"
            f"={_atoms_repr(plan, fwd_fixed[d])}"
            for d in fanin_ix[fanin_ptr[nid]:fanin_ptr[nid + 1]]
        )
        fanouts = sorted(
            f"{names[c]}@{fub_names[fub_of[c]]}"
            f"={_atoms_repr(plan, through[c])}"
            f"/{_atoms_repr(plan, sink[c])}"
            for c in fanout_ix[fanout_ptr[nid]:fanout_ptr[nid + 1]]
        )
        lines[plan.fub_of[nid]].append(_SEP.join((
            names[nid],
            kind_l[nid],
            role_l[nid],
            str(mode_l[nid]),
            _special_repr(special_l[nid]),
            _atoms_repr(plan, fwd_fixed[nid]),
            _atoms_repr(plan, through[nid]),
            _atoms_repr(plan, sink[nid]),
            ",".join(fanins),
            ",".join(fanouts),
        )))

    out: dict[str, str] = {}
    for f, fub in enumerate(plan.fub_names):
        digest = hashlib.sha256(fub.encode())
        for line in sorted(lines[f]):
            digest.update(b"\x1e")
            digest.update(line.encode())
        out[fub] = digest.hexdigest()
    return out


# ----------------------------------------------------------------------
# FUB dependency closures over the relaxation importer graphs
# ----------------------------------------------------------------------

def _dependency_edges(
    plan: SolvePlan, importers: Mapping[int, tuple[int, ...]]
) -> list[set[int]]:
    """dep[F] = FUBs whose exported boundary entries F's kernels read."""
    dep: list[set[int]] = [set() for _ in range(plan.n_fubs)]
    fub_of = plan.fub_of
    for nid, fubs in importers.items():
        owner = fub_of[nid]
        for f in fubs:
            if f != owner:
                dep[f].add(owner)
    return dep


def _closures(dep: list[set[int]]) -> list[frozenset[int]]:
    """Reflexive-transitive reachability per FUB (graphs may be cyclic)."""
    out: list[frozenset[int]] = []
    for start in range(len(dep)):
        seen = {start}
        stack = [start]
        while stack:
            for g in dep[stack.pop()]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        out.append(frozenset(seen))
    return out


def fub_closures(
    plan: SolvePlan,
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """(forward-ancestor, backward-descendant) closures, self included.

    Closure membership answers "whose edit can change my converged
    solution in this direction": the forward fixpoint of F reads only
    boundary entries exported by its forward closure, the backward
    fixpoint only those of its backward closure.
    """
    f_clo = _closures(_dependency_edges(plan, plan.f_importers))
    b_clo = _closures(_dependency_edges(plan, plan.b_importers))
    return f_clo, b_clo


def dirty_fub_indices(
    plan: SolvePlan, touched: set[int]
) -> tuple[set[int], set[int]]:
    """Per-direction dirty FUB index sets for edited FUBs *touched*."""
    f_clo, b_clo = fub_closures(plan)
    f_dirty = {f for f in range(plan.n_fubs) if f_clo[f] & touched}
    b_dirty = {f for f in range(plan.n_fubs) if b_clo[f] & touched}
    return f_dirty, b_dirty


# ----------------------------------------------------------------------
# design deltas
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DesignDelta:
    """Per-FUB difference between two built plans (baseline → target)."""

    ref_a: str
    ref_b: str
    changed: tuple[str, ...]
    added: tuple[str, ...]
    removed: tuple[str, ...]
    unchanged: tuple[str, ...]
    # FUBs of the target whose converged solution may differ from the
    # baseline's (per-direction reachability folded into one set): a
    # static upper bound, not a measured change.
    dirty: tuple[str, ...]

    @property
    def touched(self) -> frozenset[str]:
        return frozenset(self.changed) | frozenset(self.added)

    @property
    def n_fubs(self) -> int:
        return len(self.changed) + len(self.added) + len(self.unchanged)

    @property
    def dirty_fraction(self) -> float:
        return len(self.dirty) / self.n_fubs if self.n_fubs else 0.0

    def to_mapping(self) -> dict[str, Any]:
        return {
            "ref_a": self.ref_a,
            "ref_b": self.ref_b,
            "changed": list(self.changed),
            "added": list(self.added),
            "removed": list(self.removed),
            "unchanged": list(self.unchanged),
            "dirty": list(self.dirty),
            "n_fubs": self.n_fubs,
            "dirty_fraction": self.dirty_fraction,
        }

    def table(self) -> str:
        """Human-readable summary for the ``diff`` subcommand."""
        rows = [("fub", "status", "dirty")]
        dirty = set(self.dirty)
        for fub in self.changed:
            rows.append((fub or "(top)", "changed", "yes"))
        for fub in self.added:
            rows.append((fub or "(top)", "added", "yes"))
        for fub in self.removed:
            rows.append((fub or "(top)", "removed", "-"))
        for fub in self.unchanged:
            rows.append((fub or "(top)", "unchanged", "yes" if fub in dirty else ""))
        width = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = [
            "  ".join(cell.ljust(width[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        lines.insert(1, "  ".join("-" * w for w in width))
        lines.append(
            f"{len(self.changed)} changed, {len(self.added)} added, "
            f"{len(self.removed)} removed; dirty set {len(self.dirty)}/"
            f"{self.n_fubs} FUBs ({self.dirty_fraction:.0%})"
        )
        return "\n".join(lines)


def diff_plans(
    plan_a: SolvePlan,
    plan_b: SolvePlan,
    *,
    ref_a: str = "baseline",
    ref_b: str = "target",
) -> DesignDelta:
    """Diff two built plans into a :class:`DesignDelta`.

    A removed FUB needs no dirty propagation of its own: any surviving
    FUB that read it has different fan-ins (or a different loop/control
    classification) and therefore a changed fingerprint already. A
    renamed FUB appears as removed + added.
    """
    fps_a = fub_fingerprints(plan_a)
    fps_b = fub_fingerprints(plan_b)

    changed = tuple(
        fub for fub in plan_b.fub_names
        if fub in fps_a and fps_a[fub] != fps_b[fub]
    )
    added = tuple(fub for fub in plan_b.fub_names if fub not in fps_a)
    removed = tuple(fub for fub in plan_a.fub_names if fub not in fps_b)
    unchanged = tuple(
        fub for fub in plan_b.fub_names
        if fub in fps_a and fps_a[fub] == fps_b[fub]
    )

    touched = {
        f for f, fub in enumerate(plan_b.fub_names)
        if fub in changed or fub in added
    }
    f_dirty, b_dirty = dirty_fub_indices(plan_b, touched)
    dirty = tuple(
        plan_b.fub_names[f] for f in sorted(f_dirty | b_dirty)
    )
    return DesignDelta(
        ref_a=ref_a,
        ref_b=ref_b,
        changed=changed,
        added=added,
        removed=removed,
        unchanged=unchanged,
        dirty=dirty,
    )
