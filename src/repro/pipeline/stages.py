"""Stage functions: explicit inputs -> fingerprinted artifacts.

Each function maps upstream artifacts (plus the relevant spec knobs) to
one typed artifact, computing its cache fingerprint first and consulting
the :class:`~repro.pipeline.store.ArtifactStore` before doing any work.
The fingerprint chains the upstream artifact fingerprints, so a change
anywhere upstream (design config, program image, workload suite, stage
code version) transparently invalidates everything downstream.

The cache contract per stage:

========  ==========================================================
stage     keyed on
========  ==========================================================
design    never stored: resolution fingerprints it without building,
          and the build runs once, on the first stage miss that
          reads a built part
golden    design fingerprint (+ cycle budget)
ports     design fingerprint + golden cycles (archsim), or the
          workload-suite signature (ACE suite; design-independent)
plan      design + port-env fingerprints (a plan is its design and its
          ports; every SartConfig field varies freely against it)
sfi/beam  design fingerprint + full campaign plan parameters; skipped
          when checkpoint/resume is in play and never saved for
          campaigns that recorded permanent pass failures
derating  design fingerprint + sart fingerprint (when a solve rode
          along) + the MC validation knobs; workers are execution-only,
          the MC estimator is bit-identical across them
========  ==========================================================

SART solves are *not* persisted. A solve on a cached plan skips the
lowering, and a store keeps the plan it loaded resident, so later runs
through that store solve on the same object. What such a solve reuses
depends on its mode: a monolithic solve re-evaluates the plan's cached
set vectors under its environment, while the default partitioned solve
reuses the plan's cached first relaxation sweep and its union memo and
re-runs the later sweeps, their merges, and the resolution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartConfig, build_plan, run_sart
from repro.pipeline.artifacts import (
    BuiltDesign,
    CampaignOutcome,
    DeratingArtifact,
    DesignArtifact,
    GoldenRun,
    PlanArtifact,
    PortEnv,
    SartOutcome,
)
from repro.pipeline.fingerprint import fingerprint, stage_fingerprint
from repro.pipeline.spec import BeamSpec, CampaignSpec, DeratingSpec, SfiSpec
from repro.pipeline.store import ArtifactStore, NullStore


@dataclass
class StageEvent:
    """One stage execution record (for observability and tests)."""

    stage: str
    fingerprint: str
    cached: bool
    seconds: float


class PipelineContext:
    """Store + observer + event log shared by one pipeline run."""

    def __init__(self, store: ArtifactStore | None = None, observer=None):
        self.store = store if store is not None else NullStore()
        self.observer = observer
        self.events: list[StageEvent] = []

    # ------------------------------------------------------------------
    def notify(self, event: str, **info: Any) -> None:
        if self.observer is not None:
            self.observer(event, info)

    def memoize(self, stage: str, fp: str, compute: Callable[[], Any],
                *, cache: bool = True,
                keep: Callable[[Any], bool] | None = None) -> tuple[Any, bool]:
        """Fetch-or-compute with event recording; returns (obj, cached).

        ``cache=False`` bypasses the store; *keep* vetoes saving a result.
        """
        started = time.perf_counter()
        if cache:
            obj, hit = self.store.fetch(stage, fp, compute, keep=keep)
        else:
            obj, hit = compute(), False
        self.events.append(
            StageEvent(stage, fp, hit, time.perf_counter() - started)
        )
        return obj, hit


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------

def _port_deadlines(
    ports: Mapping[str, StructurePorts],
) -> Mapping[str, Mapping] | None:
    """Collect the per-structure deadline summaries a port table carries."""
    deadlines = {
        name: port.deadlines
        for name, port in ports.items()
        if getattr(port, "deadlines", None)
    }
    return deadlines or None


def stage_resolve(
    ctx: PipelineContext, provider, build: Callable[[], BuiltDesign]
) -> DesignArtifact:
    """The ``design`` stage: resolve *provider* to an unbuilt artifact.

    The artifact carries the ref, kind and fingerprint, a tinycore
    design's program image and a bigcore design's array kinds. *build*
    runs on the first access to a built part; every stage reads those
    only inside its memoized compute, so a run whose stages all hit the
    store builds nothing.
    """
    started = time.perf_counter()
    image = {}
    if provider.kind == "tinycore":
        words, dmem = provider.words()
        image = {"program_name": provider.program, "program": tuple(words),
                 "dmem": tuple(dmem) if dmem is not None else None}
    elif provider.kind == "bigcore":
        image = {"structure_kinds": provider.structure_kinds()}
    artifact = DesignArtifact(provider.ref, provider.kind,
                              provider.fingerprint(), build, **image)
    ctx.events.append(
        StageEvent("design", artifact.fingerprint, False,
                   time.perf_counter() - started)
    )
    ctx.notify("design", artifact=artifact)
    return artifact


def stage_design(ctx: PipelineContext, provider) -> BuiltDesign:
    """Build a resolved design: on first use, never persisted.

    It runs inside the first stage that reads a built part and records
    no event: its time is that stage's.
    """
    return provider.build()


def stage_golden(
    ctx: PipelineContext,
    design: DesignArtifact,
    *,
    max_cycles: int = 100_000,
) -> GoldenRun:
    """Fault-free gate-level run of a tinycore design."""
    fp = stage_fingerprint("golden", design.fingerprint, max_cycles)

    def compute() -> GoldenRun:
        from repro.designs.tinycore.harness import run_gate_level

        run = run_gate_level(
            list(design.program), list(design.dmem) if design.dmem else None,
            netlist=design.netlist, max_cycles=max_cycles,
        )
        return GoldenRun(
            fingerprint=fp,
            cycles=run.cycles,
            outputs=tuple(run.outputs.get(0, ())),
            halted=0 in run.halted_lanes,
        )

    golden, hit = ctx.memoize("golden", fp, compute)
    if hit:
        golden = replace(golden, cached=True)
    ctx.notify("golden", golden=golden)
    return golden


def stage_archsim_ports(
    ctx: PipelineContext, design: DesignArtifact, golden: GoldenRun
) -> PortEnv:
    """ACE-analyze a tinycore program -> SART-ready structure ports."""
    fp = stage_fingerprint("ports", "archsim", design.fingerprint, golden.cycles)

    def compute() -> PortEnv:
        from repro.designs.tinycore.archsim import tinycore_structure_ports

        ports, trace, _ = tinycore_structure_ports(
            design.program_name, list(design.program),
            list(design.dmem) if design.dmem else None,
            gate_cycles=golden.cycles,
        )
        return PortEnv(
            fingerprint=fp, ports=ports, source="archsim",
            ace_fraction=trace.ace_fraction(),
            deadlines=_port_deadlines(ports),
        )

    env, hit = ctx.memoize("ports", fp, compute)
    if hit:
        env = replace(env, cached=True)
    ctx.notify("ports", port_env=env)
    return env


def stage_ace_ports(
    ctx: PipelineContext,
    design: DesignArtifact,
    *,
    per_class: int,
    length: int,
) -> PortEnv:
    """Run the ACE workload suite and map its ports onto the design.

    The expensive half (the suite itself) is design-independent and
    cached on the suite signature alone; the per-array mapping is cheap
    and recomputed from the resolved design's array kinds, with no build.
    """
    from repro.workloads.suite import suite_signature

    signature = suite_signature(per_class, length)
    # True marks the suite's bit-weighted ports; it stays in the
    # fingerprint so artifacts cached under it keep hitting.
    ace_fp = stage_fingerprint("ace", signature, True)
    n_workloads = len(signature)

    def compute_suite():
        from repro.ace.portavf import suite_ports_and_table
        from repro.workloads import default_suite

        ctx.notify("ace:run", workloads=n_workloads)
        traces = default_suite(per_class=per_class, length=length)
        model_ports, table = suite_ports_and_table(traces)
        return {"model_ports": model_ports, "table": table}

    suite, hit = ctx.memoize("ace", ace_fp, compute_suite)
    if hit:
        ctx.notify("ace:cached", workloads=n_workloads, fingerprint=ace_fp)

    from repro.designs.bigcore import map_structure_ports

    mapped = map_structure_ports(design, suite["model_ports"])
    env = PortEnv(
        fingerprint=fingerprint("ports", "ace-suite", ace_fp, design.fingerprint),
        ports=mapped,
        source="ace-suite",
        workloads=n_workloads,
        ace_table=suite["table"],
        deadlines=_port_deadlines(mapped),
        cached=hit,
    )
    ctx.notify("ports", port_env=env)
    return env


def stage_ports_file(ctx: PipelineContext, path: str) -> PortEnv:
    """Load a ``name pavf_r pavf_w [avf]`` structure-port table.

    The path comes from outside the program (a flag, a spec, a job), so
    an unreadable file or a malformed line is a
    :class:`~repro.errors.SpecError` naming the path (and the line).
    """
    from repro.errors import SpecError

    started = time.perf_counter()
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or type(exc).__name__
        raise SpecError(f"{path}: cannot read ports file ({reason})") from None
    ports: dict[str, StructurePorts] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise SpecError(
                f"{path}:{lineno}: expected 'name pavf_r pavf_w [avf]'"
            )
        try:
            values = [float(text) for text in fields[1:]]
            if not all(0.0 <= value <= 1.0 for value in values):  # NaN too
                raise ValueError
        except ValueError:
            raise SpecError(
                f"{path}:{lineno}: pavf_r, pavf_w and avf must be numbers "
                f"in [0, 1], got {line!r}"
            ) from None
        name = fields[0]
        ports[name] = StructurePorts(
            name=name, pavf_r=values[0], pavf_w=values[1],
            avf=values[2] if len(values) == 3 else None,
        )
    table = sorted(
        (p.name, float(p.pavf_r), float(p.pavf_w), p.avf) for p in ports.values()
    )
    env = PortEnv(
        fingerprint=fingerprint("ports", "file", table), ports=ports, source="file"
    )
    ctx.events.append(
        StageEvent("ports", env.fingerprint, False, time.perf_counter() - started)
    )
    ctx.notify("ports", port_env=env)
    return env


def stage_plan(
    ctx: PipelineContext,
    design: DesignArtifact,
    port_env: PortEnv | None,
) -> PlanArtifact:
    """Lower the design once into a reusable compiled SolvePlan."""
    env_fp = port_env.fingerprint if port_env is not None else None
    fp = stage_fingerprint("plan", design.fingerprint, env_fp)

    def compute():
        nonlocal started
        ports = port_env.ports if port_env is not None else None
        target = design.target
        started = time.perf_counter()  # the lowering's time, not the build's
        return build_plan(target, ports)

    started = time.perf_counter()
    plan, hit = ctx.memoize("plan", fp, compute)
    artifact = PlanArtifact(fingerprint=fp, plan=plan, cached=hit)
    ctx.notify("plan", plan=artifact, seconds=time.perf_counter() - started)
    return artifact


def stage_sart(
    ctx: PipelineContext,
    port_env: PortEnv | None,
    config: SartConfig,
    plan: PlanArtifact,
    *,
    warm_start=None,
) -> SartOutcome:
    """One SART solve (propagation + resolution) on *plan*, never persisted.

    The plan carries its design and ports, so the solve builds nothing.
    *warm_start* (the ``[eco]`` flow, built by
    :func:`repro.pipeline.delta.warm_start_from_result`) seeds the
    relaxation from a baseline solution; without it the solve runs cold.
    """
    started = time.perf_counter()
    result = run_sart(plan=plan.plan, config=config, warm_start=warm_start)
    fp = fingerprint(
        "sart",
        plan.fingerprint,
        port_env.fingerprint if port_env is not None else None,
        config.loop_pavf, config.iterations, config.partition_by_fub,
        config.dangling,
    )
    outcome = SartOutcome(
        fingerprint=fp,
        result=result,
        plan_fingerprint=plan.fingerprint,
        warm=warm_start is not None,
        dirty_fubs=(tuple(sorted(warm_start.dirty_fubs))
                    if warm_start is not None else ()),
    )
    ctx.events.append(
        StageEvent("sart", fp, False, time.perf_counter() - started)
    )
    ctx.notify("sart", outcome=outcome)
    return outcome


def stage_derating(
    ctx: PipelineContext,
    design: DesignArtifact,
    spec: DeratingSpec,
    campaign: CampaignSpec,
    sart: SartOutcome | None = None,
) -> DeratingArtifact:
    """Analytic per-flop logic derating, with optional MC validation.

    The analytic pass runs on any design; the Monte-Carlo masking
    estimator needs the simulable gate-level core, so ``mc_trials > 0``
    is tinycore-only. Worker count and lane width are execution
    placement: the MC outcomes are bit-identical across them by the
    runtime's determinism contract, so they stay out of the fingerprint.
    """
    fp = stage_fingerprint(
        "derating", design.fingerprint,
        sart.fingerprint if sart is not None else None,
        spec.mc_trials, spec.mc_seed,
    )

    def compute() -> DeratingArtifact:
        from repro.core.resolve import ROLE_STRUCT
        from repro.netlist.graph import NodeKind
        from repro.ser.derating import (
            MaskingConfig, analytic_derating, measure_masking_mc,
        )

        derating = analytic_derating(design.target)
        derated_seq_avf = None
        if sart is not None:
            products = [
                node.avf * derating.factor(node.net)
                for node in sart.result.node_avfs.values()
                if node.kind == NodeKind.SEQ and node.role != ROLE_STRUCT
            ]
            if products:
                derated_seq_avf = sum(products) / len(products)
        mc = None
        if spec.mc_trials > 0:
            if design.kind != "tinycore":
                from repro.errors import SpecError

                raise SpecError(
                    "[derating] mc_trials needs a simulable gate-level "
                    f"core; design {design.ref!r} is {design.kind!r}"
                )
            result = measure_masking_mc(
                list(design.program),
                list(design.dmem) if design.dmem else None,
                MaskingConfig(
                    trials=spec.mc_trials, seed=spec.mc_seed,
                    lanes_per_pass=campaign.lanes_per_pass,
                ),
                netlist=design.netlist,
                workers=campaign.workers,
            )
            mc = result.to_summary()
        return DeratingArtifact(
            fingerprint=fp,
            summary=derating.to_summary(),
            flop_derating=dict(derating.flop_derating),
            derated_seq_avf=derated_seq_avf,
            mc=mc,
        )

    artifact, hit = ctx.memoize("derating", fp, compute)
    if hit:
        artifact = replace(artifact, cached=True)
    ctx.notify("derating", derating=artifact)
    return artifact


def _runtime_options(campaign: CampaignSpec):
    from repro.sfi.runtime import RuntimeOptions

    checkpoint = campaign.checkpoint or campaign.resume
    return RuntimeOptions(
        max_retries=campaign.max_retries,
        pass_timeout=campaign.pass_timeout,
        checkpoint=checkpoint,
        resume=campaign.resume,
        max_pool_restarts=campaign.max_pool_restarts,
    )


def _memoize_campaign(ctx: PipelineContext, stage: str, fp: str,
                      compute: Callable[[], Any], campaign: CampaignSpec):
    """Memoize an sfi/beam campaign. A cache hit would bypass checkpoint/
    resume, so either one opts out; failed passes veto the save."""
    return ctx.memoize(
        stage, fp, compute,
        cache=not (campaign.checkpoint or campaign.resume),
        keep=lambda result: not result.failures,
    )


def stage_sfi(
    ctx: PipelineContext,
    design: DesignArtifact,
    golden: GoldenRun,
    spec: SfiSpec,
    campaign: CampaignSpec,
    *,
    max_cycles: int = 100_000,
) -> CampaignOutcome:
    """Plan and execute a statistical fault-injection campaign."""
    from repro.netlist.graph import extract_graph
    from repro.sfi import plan_campaign, run_sfi_campaign
    from repro.sfi.campaign import resolve_lanes_per_pass

    lanes = resolve_lanes_per_pass(campaign.lanes_per_pass)
    fp = stage_fingerprint(
        "sfi", design.fingerprint, golden.cycles, spec.injections, spec.seed,
        spec.per_node, max_cycles, lanes,
    )
    plans = []

    def compute():
        seqs = extract_graph(design.netlist.module).seq_nets()
        plans.extend(plan_campaign(
            seqs, golden.cycles - 2, spec.injections, seed=spec.seed,
            per_node=spec.per_node,
        ))
        return run_sfi_campaign(
            list(design.program), list(design.dmem) if design.dmem else None,
            plans, netlist=design.netlist,
            workers=campaign.workers, lanes_per_pass=campaign.lanes_per_pass,
            max_cycles=max_cycles, runtime=_runtime_options(campaign),
        )

    result, hit = _memoize_campaign(ctx, "sfi", fp, compute, campaign)
    # A hit planned nothing, but a stored result has no failed passes:
    # it holds one outcome per planned injection.
    outcome = CampaignOutcome(
        fingerprint=fp, kind="sfi", result=result,
        injections=len(result.outcomes) if hit else len(plans),
        golden_cycles=golden.cycles, cached=hit,
    )
    ctx.notify("sfi", outcome=outcome)
    return outcome


def stage_beam(
    ctx: PipelineContext,
    design: DesignArtifact,
    spec: BeamSpec,
    campaign: CampaignSpec,
    *,
    max_cycles: int = 100_000,
) -> CampaignOutcome:
    """Run a simulated accelerated beam test."""
    from repro.ser.beam import BeamConfig, run_beam_test
    from repro.sfi.campaign import resolve_lanes_per_pass

    lanes = resolve_lanes_per_pass(campaign.lanes_per_pass)
    config = BeamConfig(
        flux=spec.flux, exposures=spec.exposures, seed=spec.seed,
        lanes_per_pass=lanes,
        max_cycles=max_cycles,
        include_arrays=spec.include_arrays, parity=spec.parity,
    )
    fp = stage_fingerprint(
        "beam", design.fingerprint, spec.flux, spec.exposures, spec.seed,
        spec.include_arrays, spec.parity, max_cycles, lanes,
    )

    def compute():
        return run_beam_test(
            list(design.program), list(design.dmem) if design.dmem else None,
            config, netlist=design.netlist,
            workers=campaign.workers, runtime=_runtime_options(campaign),
        )

    result, hit = _memoize_campaign(ctx, "beam", fp, compute, campaign)
    outcome = CampaignOutcome(fingerprint=fp, kind="beam", result=result, cached=hit)
    ctx.notify("beam", outcome=outcome)
    return outcome
