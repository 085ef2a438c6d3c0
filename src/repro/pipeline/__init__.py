"""repro.pipeline — the staged analysis pipeline behind every flow.

The paper's method is inherently staged: perf-model trace -> ACE
lifetime -> port pAVFs -> netlist graph -> SART propagation -> report.
This package makes the stages explicit and reusable:

* :mod:`~repro.pipeline.artifacts` — typed, fingerprinted stage
  artifacts (:class:`DesignArtifact`, :class:`GoldenRun`,
  :class:`PortEnv`, :class:`PlanArtifact`, :class:`SartOutcome`,
  :class:`CampaignOutcome`);
* :mod:`~repro.pipeline.registry` — one :class:`DesignProvider`
  protocol behind ``tinycore:<program>``, ``bigcore@scale=...``, and
  external EXLIF netlists;
* :mod:`~repro.pipeline.store` — a content-addressed on-disk artifact
  cache (``--cache-dir``) keyed on sha256 fingerprints of design config
  + program + workload suite + stage code version;
* :mod:`~repro.pipeline.spec` / :mod:`~repro.pipeline.runner` — a
  declarative run-spec (TOML/JSON) and the executor that runs any
  composition of stages from it;
* :mod:`~repro.pipeline.emit` — the shared result-emission layer
  (tables, export files, machine-readable campaign summaries).

See ``docs/ARCHITECTURE.md`` for the stage DAG, the fingerprint/cache
key scheme, and the run-spec format.
"""

from repro.pipeline.artifacts import (
    CampaignOutcome,
    DeratingArtifact,
    DesignArtifact,
    GoldenRun,
    PlanArtifact,
    PortEnv,
    SartOutcome,
)
from repro.pipeline.fingerprint import fingerprint, stage_fingerprint
from repro.pipeline.registry import DesignProvider, resolve_design
from repro.pipeline.runner import RunOutcome, SweepPoint, execute, sart_config
from repro.pipeline.spec import (
    BeamSpec,
    CampaignSpec,
    DeratingSpec,
    ExportSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    SweepSpec,
    WorkloadsSpec,
    load_spec,
    spec_from_mapping,
)
from repro.pipeline.stages import PipelineContext, StageEvent
from repro.pipeline.store import ArtifactStore, NullStore

__all__ = [
    "ArtifactStore",
    "BeamSpec",
    "CampaignOutcome",
    "CampaignSpec",
    "DeratingArtifact",
    "DeratingSpec",
    "DesignArtifact",
    "DesignProvider",
    "ExportSpec",
    "GoldenRun",
    "NullStore",
    "PipelineContext",
    "PlanArtifact",
    "PortEnv",
    "RunOutcome",
    "RunSpec",
    "SartOutcome",
    "SartSpec",
    "SfiSpec",
    "StageEvent",
    "SweepPoint",
    "SweepSpec",
    "WorkloadsSpec",
    "execute",
    "fingerprint",
    "load_spec",
    "resolve_design",
    "sart_config",
    "spec_from_mapping",
    "stage_fingerprint",
]
