"""State types of the partitioned relaxation (paper Section 5.2).

The compiled engine (:func:`repro.core.compiled.relax_compiled`) solves
the design one FUB at a time and iterates Jacobi style: each iteration
re-solves every FUB against the FUBIO values merged at the end of the
previous one, so a pAVF value crosses exactly one partition per
iteration, as the paper notes. This module holds the record of such a
run (:class:`RelaxationTrace`) and the seed state of an incremental one
(:class:`WarmStart`). The dict-based reference relaxation the compiled
engine is checked against lives in :mod:`repro.verify.dataflow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.sart import SartResult


@dataclass
class RelaxationTrace:
    """Convergence record of one relaxation run."""

    iterations: int = 0
    converged: bool = False
    max_delta: list[float] = field(default_factory=list)
    # fub -> per-iteration average MIN(f, b) over its sequential nodes.
    fub_avg: dict[str, list[float]] = field(default_factory=dict)
    # ECO mode: whether this run was seeded from a previous converged
    # solution, and how the FUBs split between reused and re-solved.
    warm: bool = False
    warm_fubs: int = 0      # FUBs whose solution was seeded, not re-solved
    dirty_fubs: int = 0     # FUBs in the initial re-solve set
    resolved_fubs: int = 0  # distinct FUBs actually re-solved (≥ dirty_fubs)
    # Plan indices of the re-solved FUBs; on warm runs
    # ``fub_avg`` covers only these (untouched FUBs have no new values
    # to record — their solution is the seeded baseline's).
    resolved_fub_ids: tuple[int, ...] = ()


@dataclass
class WarmStart:
    """Seed state for an incremental (ECO) relaxation.

    Carries the ``baseline`` result, a converged partitioned solve on
    another plan, read by net name (node and set ids are plan-private
    and do not survive a rebuild):

    * its ``f_boundary``/``b_boundary`` — converged FUBIO boundary
      entries — are the relaxation's seed, read for the new plan's
      exports. They are kept apart from node values because the MIN
      merge keeps the *first* set to reach a value: at convergence a
      boundary entry may hold an older, equal-valued set than the
      owner's final output, and bit-identical replay must preserve that
      history.
    * its ``f_sets``/``b_sets``/``node_avfs`` — converged per-node
      annotation sets and resolved AVFs. The solver front end reuses
      them for every FUB the re-solve never touched instead of
      re-resolving the whole design.
    * ``dirty_fubs`` — the FUBs the relaxation re-solves up front.
      Everything else starts converged and is only re-solved if a
      boundary merge dirties it.

    The *entire* baseline solution is seeded, including FUBs whose
    values the edit may have changed, and ``dirty_fubs`` lists only the
    structurally changed FUBs. Seeds are then *not* lower bounds (an
    edit can raise values), so the relaxation switches its merge to
    replace-on-set-change and converges on quiescence: a re-solved
    export that differs from its seed — in either direction — replaces
    it and dirties the importers, so the re-solve front expands along
    the edit's *actual value influence* and stops where the solution
    provably stopped changing. The underlying node system is acyclic
    (fixed nodes cut every cycle), so its fixpoint is unique and
    quiescence lands bit-identically on the cold answer while touching
    only the influenced region — typically a tiny fraction of the
    design, where any static reachability bound would re-solve most of
    it.
    """

    dirty_fubs: frozenset[str]
    baseline: SartResult
