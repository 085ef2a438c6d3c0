"""Typed stage artifacts for the analysis pipeline.

The paper's flow is staged — perf-model trace -> ACE lifetime -> port
pAVFs -> netlist graph -> SART propagation -> report — and each stage
boundary here gets a frozen dataclass with a stable content fingerprint
(:mod:`repro.pipeline.fingerprint`). Stage functions
(:mod:`repro.pipeline.stages`) produce them, the artifact store
(:mod:`repro.pipeline.store`) persists the expensive ones, and the
runner (:mod:`repro.pipeline.runner`) wires them together from a
declarative run-spec.

Artifact types
--------------

``DesignArtifact``
    A built design: the flattened netlist
    :class:`~repro.netlist.netlist.Module` of a generated design, or the
    lowered :class:`~repro.netlist.graph.NetGraph` of an ``exlif:`` file,
    plus whatever design-specific inventory downstream stages need
    (tinycore netlist + program words, bigcore FUB inventory).
``GoldenRun``
    The durable facts of a fault-free gate-level run: cycle count and
    the architectural observation surface. Both the SART branch (cycle
    normalization) and the SFI branch (campaign planning) consume it, so
    one golden run feeds both.
``PortEnv``
    The structure port-AVF table SART binds into its environment, with
    provenance (archsim ACE analysis, the bigcore ACE workload suite, a
    ports file, or none).
``PlanArtifact``
    A lowered :class:`~repro.core.compiled.SolvePlan` — the expensive
    structural half of a compiled SART run, reusable across sweeps and
    invocations.
``SartOutcome``
    One SART solve: the full :class:`~repro.core.sart.SartResult`.
``CampaignOutcome``
    One SFI or beam campaign: the classified outcome set plus the
    planning context it was derived from.

All artifacts are frozen; ``cached`` records whether the instance was
loaded from the store (it is excluded from equality/fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartResult
from repro.netlist.graph import NetGraph
from repro.netlist.netlist import Module


@dataclass(frozen=True)
class DesignArtifact:
    """A built design plus the inventory downstream stages need."""

    ref: str                     # normalized registry reference
    kind: str                    # "tinycore" | "bigcore" | "exlif"
    fingerprint: str
    module: Module | None = None  # flattened netlist (generated designs)
    graph: NetGraph | None = None  # lowered node graph (exlif:)
    # tinycore: the simulable netlist and its program image.
    netlist: Any = None          # TinycoreNetlist | None
    program: tuple[int, ...] | None = None
    dmem: tuple[int, ...] | None = None
    program_name: str | None = None
    # bigcore: the generated design inventory (structure_kinds etc.).
    design: Any = None           # BigcoreDesign | None

    @property
    def target(self) -> Module | NetGraph:
        """What the analysis stages lower: the graph when there is one."""
        return self.graph if self.graph is not None else self.module

    def describe(self) -> str:
        return f"{self.ref} [{self.fingerprint[:12]}]"


@dataclass(frozen=True)
class GoldenRun:
    """Fault-free gate-level run facts (the SDC observability surface)."""

    fingerprint: str
    cycles: int
    outputs: tuple[int, ...]     # lane-0 output-port stream
    halted: bool                 # lane 0 reached HALT
    cached: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class PortEnv:
    """Structure port AVFs bound into the SART environment."""

    fingerprint: str
    ports: Mapping[str, StructurePorts] | None
    source: str                  # "archsim" | "ace-suite" | "file" | "none"
    # archsim provenance (tinycore): ACE fraction of the traced program.
    ace_fraction: float | None = None
    # ACE-suite provenance (bigcore): suite size and the rendered
    # Figure-9-style structure table, so warm runs print the same report.
    workloads: int = 0
    ace_table: str | None = None
    # Per-structure error-reporting deadline distributions (JSON-safe
    # summaries from the ACE lifetime analyzer); None when the port
    # source carries no event timing (ports files, pre-deadline caches).
    deadlines: Mapping[str, Mapping] | None = None
    cached: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class PlanArtifact:
    """A reusable compiled SolvePlan with its provenance fingerprint.

    ``format`` is the on-disk plan layout version
    (:data:`repro.core.compiled.PLAN_FORMAT`); it travels with cached
    artifacts so stale store entries from older layouts are detectable.
    """

    fingerprint: str
    plan: Any                    # repro.core.compiled.SolvePlan
    cached: bool = field(default=False, compare=False)
    format: int = 4              # repro.core.compiled.PLAN_FORMAT at build

    @property
    def n(self) -> int:
        return self.plan.n


@dataclass(frozen=True)
class SartOutcome:
    """One SART solve (propagation + resolution + per-FUB report)."""

    fingerprint: str
    result: SartResult
    plan_fingerprint: str | None = None
    cached: bool = field(default=False, compare=False)
    # ``[eco]`` runs: ``warm`` means the relaxation was seeded from the
    # baseline's solution with ``dirty_fubs`` as the initial re-solve set.
    warm: bool = False
    dirty_fubs: tuple[str, ...] = ()


@dataclass(frozen=True)
class CampaignOutcome:
    """One SFI or beam campaign, with its planning context."""

    fingerprint: str
    kind: str                    # "sfi" | "beam"
    result: Any                  # CampaignResult | BeamResult
    injections: int = 0          # planned injections (sfi)
    golden_cycles: int = 0       # campaign window (sfi)
    cached: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class DeratingArtifact:
    """Per-flop logic-derating analysis (combinational masking).

    ``summary`` is the population view from
    :meth:`repro.ser.derating.DeratingResult.to_summary`;
    ``flop_derating`` the full per-flop factor table.
    ``derated_seq_avf`` is the mean of ``avf x derating`` over the
    design's sequential nodes when a SART solve accompanied the run.
    ``mc`` carries the Monte-Carlo masking validation summary when the
    spec asked for one (tinycore only).
    """

    fingerprint: str
    summary: Mapping[str, Any]
    flop_derating: Mapping[str, float]
    derated_seq_avf: float | None = None
    mc: Mapping[str, Any] | None = None
    cached: bool = field(default=False, compare=False)
