"""Design deltas and per-FUB incremental re-solve (ECO mode).

The whole-design cache treats any netlist edit as total invalidation: a
one-flop ECO on a million-node design re-lowers, re-solves and re-resolves
everything. This module shifts the granularity to the paper's own unit of
partitioning — the FUB — so an edit invalidates only the FUBs whose solve
can actually observe it:

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

* Two reuse paths with different soundness arguments:

  - the **store path** (:func:`fub_solution_keys`,
    :func:`warm_start_from_store`) content-addresses per-(FUB,
    direction) converged sub-solutions. A key chains the dependency
    closure's fingerprints, so a hit *proves* the entry equals the cold
    fixpoint; hits seed the relaxation exactly and misses restart from
    TOP under the normal MIN merge.

  - the **delta path** (:func:`warm_start_from_result`) seeds the whole
    baseline solution optimistically and marks only the structurally
    changed FUBs dirty. The relaxation then runs its replace-on-change
    merge (see :class:`~repro.core.relaxation.WarmStart`): the re-solve
    front expands along the edit's *actual value influence* instead of
    the static closure — which on designs like bigcore, whose FUBs form
    one connected dependency web, is the difference between re-solving
    one FUB and re-solving all of them. Either way the converged result
    is bit-identical to a cold solve of the edited design.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.compiled import SolvePlan
from repro.core.pavf import Atom
from repro.core.relaxation import WarmStart
from repro.core.sart import SartConfig, SartResult
from repro.pipeline.fingerprint import fingerprint, stage_fingerprint, stage_token

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

    token = stage_token("fubsol")
    out: dict[str, str] = {}
    for f, fub in enumerate(plan.fub_names):
        digest = hashlib.sha256(f"{token}{_SEP}{fub}".encode())
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
    # baseline's (per-direction reachability folded into one set — the
    # set run_sart must re-solve).
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

    def is_noop(self) -> bool:
        return not (self.changed or self.added or self.removed)

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
    fingerprints_a: Mapping[str, str] | None = None,
    fingerprints_b: Mapping[str, str] | None = None,
) -> DesignDelta:
    """Diff two built plans into a :class:`DesignDelta`.

    A removed FUB needs no dirty propagation of its own: any surviving
    FUB that read it has different fan-ins (or a different loop/control
    classification) and therefore a changed fingerprint already. A
    renamed FUB appears as removed + added.
    """
    fps_a = dict(fingerprints_a) if fingerprints_a else fub_fingerprints(plan_a)
    fps_b = dict(fingerprints_b) if fingerprints_b else fub_fingerprints(plan_b)

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


# ----------------------------------------------------------------------
# per-(FUB, direction) cache keys and store entries
# ----------------------------------------------------------------------

def eco_context_fingerprint(
    config: SartConfig, port_env_fingerprint: str | None
) -> str:
    """Everything non-structural a converged per-FUB solution depends on.

    The structural side lives in the per-FUB fingerprints; this covers
    the numeric environment (injected pAVFs, port bindings via the
    port-env fingerprint) and the solve knobs that shape the iteration
    itself.
    """
    return fingerprint(
        "eco-context",
        port_env_fingerprint,
        config.loop_pavf,
        sorted((config.loop_pavf_per_net or {}).items()),
        config.ctrl_pavf,
        config.const_pavf,
        config.boundary_in_pavf,
        config.boundary_out_pavf,
        sorted((config.boundary_overrides or {}).items()),
        config.iterations,
        config.tol,
        config.max_terms,
        config.dangling,
    )


def fub_solution_keys(
    plan: SolvePlan,
    context_fingerprint: str,
    fingerprints: Mapping[str, str] | None = None,
) -> dict[str, dict[str, str]]:
    """``{fub: {"f": key, "b": key}}`` store keys for per-FUB solutions.

    A key chains the FUB's own fingerprint, the sorted fingerprints of
    its per-direction dependency closure, and the context fingerprint:
    editing FUB *k* changes exactly the keys of *k* and the FUBs that
    can reach it — every other entry keeps addressing the old (still
    valid) converged sub-solution. The own fingerprint is listed
    separately because mutually-dependent FUBs share a closure *set*
    but must not share a key.
    """
    fps = dict(fingerprints) if fingerprints else fub_fingerprints(plan)
    f_clo, b_clo = fub_closures(plan)
    names = plan.fub_names
    keys: dict[str, dict[str, str]] = {}
    for f, fub in enumerate(names):
        own = fps[fub]
        keys[fub] = {
            "f": stage_fingerprint(
                "fubsol", "f", own,
                sorted(fps[names[g]] for g in f_clo[f]),
                context_fingerprint,
            ),
            "b": stage_fingerprint(
                "fubsol", "b", own,
                sorted(fps[names[g]] for g in b_clo[f]),
                context_fingerprint,
            ),
        }
    return keys


@dataclass(frozen=True)
class FubSolution:
    """One FUB's converged solution in one direction (a store entry).

    ``sets`` carries the annotation set of every node the FUB owns,
    ``boundary`` the converged FUBIO entries it exports. Boundaries are
    stored besides node sets because the MIN merge keeps the *first*
    set to reach a value: at convergence an exported entry may hold an
    older (equal-valued) set than the owner's final output, and warm
    re-solves must replay that history to stay bit-identical.
    """

    fub: str
    direction: str  # "f" | "b"
    sets: dict[str, frozenset]
    boundary: dict[str, frozenset]


def _fub_node_names(plan: SolvePlan) -> list[list[str]]:
    names = plan.names
    by_fub: list[list[str]] = [[] for _ in range(plan.n_fubs)]
    for nid in range(plan.n):
        by_fub[plan.fub_of[nid]].append(names[nid])
    return by_fub


def extract_fub_solutions(
    plan: SolvePlan, result: SartResult
) -> dict[tuple[str, str], FubSolution]:
    """Split a converged partitioned result into per-(FUB, dir) entries.

    Requires the boundary tables run_sart captures on compiled
    partitioned runs; returns ``{}`` for anything else (nothing safe to
    reuse). Non-converged results are also refused — their sets are a
    truncation artifact, not a fixpoint.
    """
    if (
        result.trace is None
        or not result.trace.converged
        or result.f_boundary is None
        or result.b_boundary is None
    ):
        return {}
    by_fub = _fub_node_names(plan)
    names = plan.names
    fub_of = plan.fub_of
    f_bnd_by_fub: list[dict[str, frozenset]] = [{} for _ in range(plan.n_fubs)]
    for nid in plan.f_exports:
        f_bnd_by_fub[fub_of[nid]][names[nid]] = result.f_boundary[names[nid]]
    b_bnd_by_fub: list[dict[str, frozenset]] = [{} for _ in range(plan.n_fubs)]
    for nid in plan.b_exports:
        b_bnd_by_fub[fub_of[nid]][names[nid]] = result.b_boundary[names[nid]]

    out: dict[tuple[str, str], FubSolution] = {}
    for f, fub in enumerate(plan.fub_names):
        out[(fub, "f")] = FubSolution(
            fub=fub, direction="f",
            sets={name: result.f_sets[name] for name in by_fub[f]},
            boundary=f_bnd_by_fub[f],
        )
        out[(fub, "b")] = FubSolution(
            fub=fub, direction="b",
            sets={name: result.b_sets[name] for name in by_fub[f]},
            boundary=b_bnd_by_fub[f],
        )
    return out


def save_fub_solutions(
    store,
    plan: SolvePlan,
    result: SartResult,
    keys: Mapping[str, Mapping[str, str]],
    *,
    skip: Iterable[tuple[str, str]] = (),
) -> int:
    """Persist per-FUB solutions under *keys*; returns entries written.

    *skip* lists ``(fub, direction)`` pairs already served as hits —
    re-saving them would be byte-churn for no information.
    """
    solutions = extract_fub_solutions(plan, result)
    skipped = set(skip)
    written = 0
    for (fub, direction), solution in solutions.items():
        if (fub, direction) in skipped:
            continue
        store.save("fubsol", keys[fub][direction], solution)
        written += 1
    return written


# ----------------------------------------------------------------------
# warm-start assembly
# ----------------------------------------------------------------------

def warm_start_from_result(
    plan: SolvePlan,
    touched_fubs: Iterable[str],
    baseline: SartResult,
) -> WarmStart | None:
    """Optimistic warm start for *plan* from a baseline solution.

    *touched_fubs* are the changed+added FUBs of the delta (see
    :meth:`DesignDelta.touched`). The entire baseline solution is
    seeded — including FUBs the edit may influence — and only the
    touched FUBs enter the dirty set; the relaxation's replace-on-change
    merge then expands the re-solve front along the edit's actual value
    influence (``WarmStart.optimistic``). Returns None when the baseline
    has nothing safe to seed from: not a converged compiled partitioned
    run, or no captured boundary tables. FUBs whose nodes the baseline
    does not fully cover (added or renamed ones reaching this path) are
    folded into the dirty set rather than trusted partially.
    """
    if (
        baseline.trace is None
        or not baseline.trace.converged
        or baseline.f_boundary is None
        or baseline.b_boundary is None
    ):
        return None
    by_fub = _fub_node_names(plan)
    dirty = {
        f for f, fub in enumerate(plan.fub_names) if fub in set(touched_fubs)
    }
    f_base, b_base = baseline.f_sets, baseline.b_sets
    for f in range(plan.n_fubs):
        if f in dirty:
            continue
        if any(name not in f_base or name not in b_base for name in by_fub[f]):
            dirty.add(f)

    # Seed everything the baseline knows; names the new plan lacks are
    # skipped at apply time, nodes new to the edited design (their FUB is
    # dirty) are solved on the first iteration before any merge reads them.
    names = plan.names
    f_boundary = {
        names[nid]: baseline.f_boundary[names[nid]]
        for nid in plan.f_exports
        if names[nid] in baseline.f_boundary
    }
    b_boundary = {
        names[nid]: baseline.b_boundary[names[nid]]
        for nid in plan.b_exports
        if names[nid] in baseline.b_boundary
    }
    return WarmStart(
        dirty_fubs=frozenset(plan.fub_names[f] for f in dirty),
        f_sets=f_base,
        b_sets=b_base,
        f_boundary=f_boundary,
        b_boundary=b_boundary,
        optimistic=True,
        baseline_avfs=baseline.node_avfs,
    )


def warm_start_from_store(
    store,
    plan: SolvePlan,
    keys: Mapping[str, Mapping[str, str]],
) -> tuple[WarmStart | None, int, int, list[tuple[str, str]]]:
    """Assemble a warm start from per-FUB store entries.

    Returns ``(warm_start, hits, misses, hit_pairs)`` where *hit_pairs*
    are the ``(fub, direction)`` entries served from the store (the
    caller skips re-saving them). ``warm_start`` is None when nothing
    hit — a plain cold solve. An entry whose node coverage does not
    match the plan (a corrupt or colliding blob) counts as a miss.
    """
    order = [(fub, d) for fub in plan.fub_names for d in ("f", "b")]
    fps = [keys[fub][d] for fub, d in order]
    found, _, _ = store.load_many("fubsol", fps)
    by_fub = _fub_node_names(plan)
    expected = {
        fub: set(by_fub[f]) for f, fub in enumerate(plan.fub_names)
    }

    f_sets: dict[str, frozenset] = {}
    b_sets: dict[str, frozenset] = {}
    f_boundary: dict[str, frozenset] = {}
    b_boundary: dict[str, frozenset] = {}
    hit_pairs: list[tuple[str, str]] = []
    clean: dict[str, set[str]] = {"f": set(), "b": set()}
    for (fub, direction), fp in zip(order, fps):
        solution = found.get(fp)
        if (
            not isinstance(solution, FubSolution)
            or set(solution.sets) != expected[fub]
        ):
            continue
        hit_pairs.append((fub, direction))
        clean[direction].add(fub)
        if direction == "f":
            f_sets.update(solution.sets)
            f_boundary.update(solution.boundary)
        else:
            b_sets.update(solution.sets)
            b_boundary.update(solution.boundary)

    hits = len(hit_pairs)
    misses = len(order) - hits
    if not hits:
        return None, hits, misses, hit_pairs
    dirty = frozenset(
        fub for fub in plan.fub_names
        if fub not in clean["f"] or fub not in clean["b"]
    )
    warm = WarmStart(
        dirty_fubs=dirty,
        f_sets=f_sets,
        b_sets=b_sets,
        f_boundary=f_boundary,
        b_boundary=b_boundary,
    )
    return warm, hits, misses, hit_pairs
