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
    A resolved design: its reference, kind and fingerprint, plus what
    its provider knows without building (a tinycore program image, the
    bigcore array kinds). Its :class:`BuiltDesign` parts are built once,
    on first access, so a run whose stages all hit the store builds
    nothing.
``BuiltDesign``
    What a build produces: the flattened netlist
    :class:`~repro.netlist.netlist.Module` of a generated design, or the
    lowered :class:`~repro.netlist.graph.NetGraph` of an ``exlif:`` file,
    plus whatever design-specific inventory downstream stages need
    (tinycore netlist, bigcore FUB inventory).
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

All artifacts are frozen. On every stored one (all but ``SartOutcome``)
``cached`` records whether the instance was loaded from the store (it
is excluded from equality/fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartResult
from repro.errors import DesignRefError
from repro.netlist.graph import NetGraph
from repro.netlist.netlist import Module


@dataclass(frozen=True)
class BuiltDesign:
    """The parts of a design only a build produces."""

    kind: str                    # "tinycore" | "bigcore" | "systolic" | "exlif"
    fingerprint: str             # of what was built (an exlif: file as read)
    module: Module | None = None  # flattened netlist (generated designs)
    graph: NetGraph | None = None  # lowered node graph (exlif:)
    netlist: Any = None          # tinycore: TinycoreNetlist | None
    design: Any = None           # bigcore/systolic: the generator's inventory

    @property
    def target(self) -> Module | NetGraph:
        """What the analysis stages lower: the graph when there is one."""
        return self.graph if self.graph is not None else self.module


@dataclass(frozen=True)
class DesignArtifact:
    """A resolved design; its built parts are built on first access.

    *build* produces the :class:`BuiltDesign`. A build of anything but
    the resolved fingerprint (an ``exlif:`` file edited since it was
    resolved) is a :class:`~repro.errors.DesignRefError`, so no artifact
    computed from it is stored under the resolved key.
    """

    ref: str                     # normalized registry reference
    kind: str
    fingerprint: str
    build: Callable[[], BuiltDesign] = field(compare=False, repr=False)
    # tinycore: the program image.
    program: tuple[int, ...] | None = None
    dmem: tuple[int, ...] | None = None
    program_name: str | None = None
    # bigcore: latch array -> performance-model kind (the port mapping's key).
    structure_kinds: Mapping[str, str] | None = field(default=None, compare=False)

    @cached_property
    def built(self) -> BuiltDesign:
        built = self.build()
        if built.fingerprint != self.fingerprint:
            raise DesignRefError(
                f"{self.ref} changed between resolution and build"
            )
        return built

    @property
    def module(self) -> Module | None:
        return self.built.module

    @property
    def graph(self) -> NetGraph | None:
        return self.built.graph

    @property
    def netlist(self) -> Any:
        return self.built.netlist

    @property
    def design(self) -> Any:
        return self.built.design

    @property
    def target(self) -> Module | NetGraph:
        return self.built.target

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

    Plans stored under an older layout are never loaded: the plan stage
    version follows :data:`repro.core.compiled.PLAN_FORMAT`.
    """

    fingerprint: str
    plan: Any                    # repro.core.compiled.SolvePlan
    cached: bool = field(default=False, compare=False)

    @property
    def n(self) -> int:
        return self.plan.n


@dataclass(frozen=True)
class SartOutcome:
    """One SART solve (propagation + resolution + per-FUB report)."""

    fingerprint: str
    result: SartResult
    plan_fingerprint: str | None = None
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
