"""Run-spec executor: the one flow every subcommand routes through.

:func:`execute` takes a :class:`~repro.pipeline.spec.RunSpec`, resolves
the design through the registry, and runs exactly the stages the spec
declares, threading typed artifacts between them and consulting the
artifact store at every boundary. The design itself is built only when
a stage misses the store and reads it. The CLI subcommands are thin
adapters that build a spec from flags and render the returned
:class:`RunOutcome`; ``repro-sart run <spec.toml>`` executes a spec
straight from disk.

Stage DAG (stages run only when the spec needs them)::

    design ──┬────────────────────────────► plan ──► sart / sweep
             ├─► golden ──► ports(archsim) ──┘            │
             │        └────────► sfi ◄────────────────────┘
             ├─► ports(ace-suite | file) ─┘
             └─► beam / export

An *observer* callback ``observer(event, info)`` receives progress
events as stages start/finish, so callers can stream human output in
the same order the hand-wired flows used to print it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sart import SartConfig
from repro.pipeline.artifacts import (
    CampaignOutcome,
    DeratingArtifact,
    DesignArtifact,
    GoldenRun,
    PlanArtifact,
    PortEnv,
    SartOutcome,
)
from repro.pipeline.registry import resolve_design
from repro.pipeline.spec import RunSpec, SartSpec, WorkloadsSpec
from repro.pipeline.stages import (
    PipelineContext,
    StageEvent,
    stage_ace_ports,
    stage_archsim_ports,
    stage_beam,
    stage_derating,
    stage_design,
    stage_golden,
    stage_plan,
    stage_ports_file,
    stage_resolve,
    stage_sart,
    stage_sfi,
)
from repro.pipeline.store import ArtifactStore


@dataclass
class SweepPoint:
    """One evaluated point of the loop-boundary pAVF sweep."""

    value: float
    result: object               # BatchedSweepResult
    seconds: float


@dataclass
class BatchedSweepResult:
    """One sweep point's slice of a batched multi-workload evaluation.

    Exposes the same ``.report`` consumers read off a SartResult; the
    full per-node resolution is materialized on demand (it is the only
    per-point cost the batched path skips).
    """

    report: object               # DesignReport
    batch: object                # repro.core.batched.BatchedResult
    index: int

    def node_avfs(self):
        return self.batch.node_avfs(self.index)


@dataclass
class RunOutcome:
    """Everything one executed run-spec produced."""

    spec: RunSpec
    design: DesignArtifact
    golden: GoldenRun | None = None
    port_env: PortEnv | None = None
    plan: PlanArtifact | None = None
    sart: SartOutcome | None = None
    derating: DeratingArtifact | None = None
    sweep: list[SweepPoint] = field(default_factory=list)
    sfi: CampaignOutcome | None = None
    beam: CampaignOutcome | None = None
    export_path: str | None = None
    events: list[StageEvent] = field(default_factory=list)


def sart_config(spec: SartSpec) -> SartConfig:
    """The SartConfig a ``[sart]`` section describes."""
    return SartConfig(loop_pavf=spec.loop_pavf)


def resolve(ctx: PipelineContext, provider) -> DesignArtifact:
    """The ``design`` stage of *provider*; the design is built on first use.

    The build runs through this module's ``stage_design`` attribute, so
    whatever wraps that attribute sees every build.
    """
    return stage_resolve(ctx, provider, lambda: stage_design(ctx, provider))


def _export_design(design: DesignArtifact, provider, export, notify) -> str:
    # An exlif: design builds only its graph; the export re-reads the file.
    module = provider.flat_module() if design.kind == "exlif" else design.module
    if export.format == "exlif":
        from repro.netlist.exlif import write_exlif

        text = write_exlif(module)
    else:
        from repro.netlist.verilog import write_verilog

        text, _names = write_verilog(module)
    with open(export.output, "w") as handle:
        handle.write(text)
    notify("export", path=export.output, format=export.format, module=module)
    return export.output


def _eco_warm_start(ctx, spec: RunSpec, outcome: RunOutcome, config: SartConfig):
    """Solve the ``[eco]`` baseline and build the warm start.

    This is the one place that decides whether a solve warm-starts. The
    baseline design goes through the same design/plan/sart stages as any
    run (so a configured store serves its ACE suite and plan), then the
    two compiled plans are diffed and the baseline's solution seeds the
    main solve. Returns None — and the main solve runs cold — on a
    single-FUB design, which has no partition to re-solve.
    """
    from repro.pipeline import delta as delta_mod

    if outcome.plan.plan.n_fubs < 2:
        ctx.notify("eco:skip", reason="eco needs a multi-FUB plan")
        return None
    base_design = resolve(ctx, resolve_design(spec.eco.baseline))
    base_plan = stage_plan(ctx, base_design, outcome.port_env)
    base_sart = stage_sart(ctx, outcome.port_env, config, base_plan)
    delta = delta_mod.diff_plans(
        base_plan.plan, outcome.plan.plan,
        ref_a=base_design.ref, ref_b=outcome.design.ref,
    )
    ctx.notify("eco:delta", delta=delta, baseline=base_design.ref)
    return delta_mod.warm_start_from_result(
        outcome.plan.plan, delta.touched, base_sart.result
    )


def _eco_check(ctx, outcome: RunOutcome, config: SartConfig) -> None:
    """``[eco] check``: cold-solve the plan and verify equivalence."""
    from repro.core.sart import run_sart
    from repro.errors import PipelineError

    cold = run_sart(plan=outcome.plan.plan, config=config)
    warm_result = outcome.sart.result
    identical = (
        warm_result.node_avfs == cold.node_avfs
        and warm_result.f_sets == cold.f_sets
        and warm_result.b_sets == cold.b_sets
    )
    ctx.notify("eco:check", identical=identical,
               cold_seconds=cold.elapsed_seconds,
               warm_seconds=warm_result.elapsed_seconds)
    if not identical:
        raise PipelineError(
            "eco check failed: incremental solve is not bit-identical "
            "to the cold solve"
        )


def execute(
    spec: RunSpec,
    *,
    store: ArtifactStore | None = None,
    observer=None,
) -> RunOutcome:
    """Execute every stage composition *spec* declares."""
    ctx = PipelineContext(store=store, observer=observer)
    provider = resolve_design(spec.design)
    design = resolve(ctx, provider)
    outcome = RunOutcome(spec=spec, design=design)
    stages = spec.stages()

    if spec.export:
        outcome.export_path = _export_design(
            design, provider, spec.export, ctx.notify
        )

    # --- structure ports (and the golden run they may depend on) -------
    if "sart" in stages or "sweep" in stages:
        if spec.ports_file:
            outcome.port_env = stage_ports_file(ctx, spec.ports_file)
        elif design.kind == "tinycore":
            outcome.golden = stage_golden(ctx, design)
            outcome.port_env = stage_archsim_ports(ctx, design, outcome.golden)
        elif design.kind == "bigcore":
            workloads = spec.workloads or WorkloadsSpec()
            outcome.port_env = stage_ace_ports(
                ctx, design, per_class=workloads.per_class,
                length=workloads.length,
            )

    # --- SART report ---------------------------------------------------
    if "sart" in stages:
        config = sart_config(spec.sart or SartSpec())
        outcome.plan = stage_plan(ctx, design, outcome.port_env)
        warm = None
        if spec.eco is not None:
            warm = _eco_warm_start(ctx, spec, outcome, config)
        outcome.sart = stage_sart(
            ctx, outcome.port_env, config, outcome.plan, warm_start=warm,
        )
        if spec.eco is not None and spec.eco.check:
            _eco_check(ctx, outcome, config)

    # --- logic derating ------------------------------------------------
    if "derating" in stages:
        outcome.derating = stage_derating(
            ctx, design, spec.derating, spec.campaign, outcome.sart
        )

    # --- Figure-8 loop sweep -------------------------------------------
    if "sweep" in stages:
        import time

        from repro.core.batched import sweep_batched

        if outcome.plan is None:
            outcome.plan = stage_plan(ctx, design, outcome.port_env)
        points = spec.sweep.points
        ctx.notify("sweep:begin", plan=outcome.plan, points=points)
        values = [i / (points - 1) if points > 1 else 0.0
                  for i in range(points)]
        plan = outcome.plan.plan
        started = time.perf_counter()
        batch = sweep_batched(plan, values, SartConfig())
        elapsed = time.perf_counter() - started
        ctx.notify(
            "sweep:batched", points=points, seconds=elapsed,
            nodes=plan.n,
            nodes_per_second=plan.n * points / elapsed if elapsed > 0 else 0.0,
        )
        share = elapsed / points
        for w, value in enumerate(values):
            result = BatchedSweepResult(
                report=batch.report(w), batch=batch, index=w
            )
            outcome.sweep.append(SweepPoint(value, result, share))
            ctx.notify("sweep:point", value=value, result=result,
                       seconds=share)

    # --- campaigns -----------------------------------------------------
    if "sfi" in stages:
        if design.kind != "tinycore":
            from repro.errors import SpecError

            raise SpecError("the sfi stage needs a tinycore design")
        if outcome.golden is None:
            outcome.golden = stage_golden(ctx, design)
        outcome.sfi = stage_sfi(
            ctx, design, outcome.golden, spec.sfi, spec.campaign
        )

    if "beam" in stages:
        if design.kind != "tinycore":
            from repro.errors import SpecError

            raise SpecError("the beam stage needs a tinycore design")
        beam_design = design
        if spec.beam.parity and not provider.parity:
            # The beam wants the parity-protected variant but the run's
            # design is the plain core: resolve the protected sibling.
            beam_design = resolve(
                ctx, resolve_design(spec.design, parity="1")
            )
        outcome.beam = stage_beam(ctx, beam_design, spec.beam, spec.campaign)

    outcome.events = ctx.events
    return outcome
