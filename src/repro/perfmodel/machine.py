"""Machine-level driver: run one workload through the ACE-instrumented
pipeline and collect results."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ace.lifetime import StructureAvf, StructureLifetime
from repro.perfmodel.pipeline import Pipeline, PipelineConfig, PipelineStats
from repro.perfmodel.trace import Trace, mark_ace

# Re-exported alias: the machine configuration IS the pipeline configuration.
MachineConfig = PipelineConfig


@dataclass
class PerfResult:
    """Outcome of one ACE-instrumented performance-model run."""

    workload: str
    stats: PipelineStats
    lifetimes: dict[str, StructureLifetime]
    occupancy: dict[str, float] = field(default_factory=dict)

    @property
    def structures(self) -> dict[str, StructureAvf]:
        """Each structure's finished ACE counters, by structure name."""
        return {name: lifetime.stats for name, lifetime in self.lifetimes.items()}

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


def run_workload(trace: Trace, config: MachineConfig | None = None) -> PerfResult:
    """Simulate *trace* with ACE instrumentation attached.

    The trace is ACE-marked in place when needed. Returns structure AVFs
    (Eq 3) and the event counters that
    :func:`repro.ace.portavf.ports_from_analysis` turns into pAVFs.
    """
    config = config or MachineConfig()
    if any(inst.ace is None for inst in trace.insts):
        mark_ace(trace)
    pipeline = Pipeline(trace, config)
    stats = pipeline.run()
    for structure in pipeline.structures:
        structure.lifetime.finish(stats.cycles)
    return PerfResult(
        workload=trace.name,
        stats=stats,
        lifetimes={s.name: s.lifetime for s in pipeline.structures},
        occupancy={s.name: s.mean_occupancy() for s in pipeline.structures},
    )
