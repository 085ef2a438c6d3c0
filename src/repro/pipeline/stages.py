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
golden    design fingerprint (+ cycle budget)
ports     design fingerprint + golden cycles (archsim), or the
          workload-suite signature (ACE suite; design-independent)
plan      design + port-env fingerprints + the structural SartConfig
          knobs (:meth:`~repro.core.sart.SartConfig.structural_knobs`)
sfi/beam  design fingerprint + full campaign plan parameters; skipped
          when checkpoint/resume is in play and never saved for
          campaigns that recorded permanent pass failures
derating  design fingerprint + sart fingerprint (when a solve rode
          along) + the MC validation knobs; workers are execution-only,
          the MC estimator is bit-identical across them
========  ==========================================================

SART solves themselves are *not* persisted whole: with a cached plan
they are re-evaluations, which is the paper's own speed story.
Partitioned solves do persist their per-(FUB, direction) converged
sub-solutions under ``fubsol`` keys (ECO mode, see
:mod:`repro.pipeline.delta`), so a later solve of an edited design hits
on every unchanged FUB and warm-starts the relaxation over the dirty
set alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartConfig, build_plan, run_sart
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
                *, cache: bool = True) -> tuple[Any, bool]:
        """Fetch-or-compute with event recording; returns (obj, cached)."""
        started = time.perf_counter()
        if cache:
            obj, hit = self.store.fetch(stage, fp, compute)
        else:
            obj, hit = compute(), False
        self.events.append(
            StageEvent(stage, fp, hit, time.perf_counter() - started)
        )
        return obj, hit

    def cached_stages(self) -> set[str]:
        return {e.stage for e in self.events if e.cached}

    def computed_stages(self) -> set[str]:
        return {e.stage for e in self.events if not e.cached}


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


def stage_design(ctx: PipelineContext, provider) -> DesignArtifact:
    """Build the design (cheap relative to analysis; never persisted)."""
    started = time.perf_counter()
    artifact = provider.build()
    ctx.events.append(
        StageEvent("design", artifact.fingerprint, False,
                   time.perf_counter() - started)
    )
    ctx.notify("design", artifact=artifact)
    return artifact


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
    and recomputed against the design at hand.
    """
    from repro.workloads.suite import suite_signature

    signature = suite_signature(per_class, length)
    ace_fp = stage_fingerprint("ace", signature, True)  # bitwise=True

    def compute_suite():
        from repro.ace.portavf import suite_ports_and_table
        from repro.workloads import default_suite

        traces = default_suite(per_class=per_class, length=length)
        model_ports, table = suite_ports_and_table(traces)
        return {"model_ports": model_ports, "table": table}

    n_workloads = len(signature)
    started = time.perf_counter()
    suite = ctx.store.load("ace", ace_fp)
    hit = suite is not None
    if hit:
        ctx.store.hits += 1
        ctx.notify("ace:cached", workloads=n_workloads, fingerprint=ace_fp)
    else:
        ctx.store.misses += 1
        ctx.notify("ace:run", workloads=n_workloads)
        suite = compute_suite()
        try:
            ctx.store.save("ace", ace_fp, suite)
        except Exception:
            pass
    ctx.events.append(
        StageEvent("ace", ace_fp, hit, time.perf_counter() - started)
    )

    from repro.designs.bigcore import map_structure_ports

    mapped = map_structure_ports(design.design, suite["model_ports"])
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
    """Load a ``name pavf_r pavf_w [avf]`` structure-port table."""
    started = time.perf_counter()
    ports: dict[str, StructurePorts] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (3, 4):
                raise SystemExit(
                    f"{path}:{lineno}: expected 'name pavf_r pavf_w [avf]'"
                )
            name = fields[0]
            avf = float(fields[3]) if len(fields) == 4 else None
            ports[name] = StructurePorts(
                name=name, pavf_r=float(fields[1]), pavf_w=float(fields[2]), avf=avf
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
    config: SartConfig,
) -> PlanArtifact:
    """Lower the design once into a reusable compiled SolvePlan."""
    env_fp = port_env.fingerprint if port_env is not None else None
    fp = stage_fingerprint(
        "plan", design.fingerprint, env_fp, config.structural_knobs()
    )

    def compute():
        ports = port_env.ports if port_env is not None else None
        return build_plan(design.module, ports, config)

    started = time.perf_counter()
    plan, hit = ctx.memoize("plan", fp, compute)
    from repro.core.compiled import PLAN_FORMAT

    artifact = PlanArtifact(
        fingerprint=fp, plan=plan, cached=hit, format=PLAN_FORMAT
    )
    ctx.notify("plan", plan=artifact, seconds=time.perf_counter() - started)
    return artifact


def stage_sart(
    ctx: PipelineContext,
    design: DesignArtifact,
    port_env: PortEnv | None,
    config: SartConfig,
    plan: PlanArtifact,
    *,
    warm_start=None,
) -> SartOutcome:
    """One SART solve (propagation + resolution).

    The whole-design solve is never persisted — with a cached plan it is
    a re-evaluation, the paper's own speed story. What *is* persisted,
    for partitioned runs against a real store, are the
    per-(FUB, direction) converged sub-solutions (ECO mode,
    :mod:`repro.pipeline.delta`): before solving, the store is consulted
    per FUB, hits seed a warm start so only the FUBs whose sub-results
    are missing re-solve, and after a converged solve the missing
    entries are back-filled. A one-FUB edit therefore hits on every
    other FUB and re-solves only the edit's reachable dirty set —
    bit-identical to a cold solve.

    An explicit *warm_start* (the design-delta flow, built by
    :func:`repro.pipeline.delta.warm_start_from_result`) takes
    precedence: the store is neither consulted nor back-filled, the
    supplied seed drives the solve directly.
    """
    started = time.perf_counter()
    ports = port_env.ports if port_env is not None else None
    eco = (
        warm_start is None
        and not isinstance(ctx.store, NullStore)
        and config.partition_by_fub
        and plan.plan.n_fubs > 1
    )
    warm = warm_start
    fub_keys = None
    fub_fps = None
    hits = misses = 0
    hit_pairs: list[tuple[str, str]] = []
    if eco:
        from repro.pipeline import delta as delta_mod

        context_fp = delta_mod.eco_context_fingerprint(
            config, port_env.fingerprint if port_env is not None else None
        )
        fub_fps = plan.fub_fingerprints
        fub_keys = delta_mod.fub_solution_keys(
            plan.plan, context_fp, fingerprints=fub_fps
        )
        warm, hits, misses, hit_pairs = delta_mod.warm_start_from_store(
            ctx.store, plan.plan, fub_keys
        )
        ctx.notify(
            "eco", fub_hits=hits, fub_misses=misses,
            dirty=sorted(warm.dirty_fubs) if warm is not None else None,
        )

    result = run_sart(design.module, ports, config, plan=plan.plan, warm_start=warm)

    if eco and misses:
        from repro.pipeline import delta as delta_mod

        delta_mod.save_fub_solutions(
            ctx.store, plan.plan, result, fub_keys, skip=hit_pairs
        )
    fp = fingerprint(
        "sart",
        plan.fingerprint,
        port_env.fingerprint if port_env is not None else None,
        config.loop_pavf, config.iterations, config.partition_by_fub,
        config.max_terms, config.dangling,
    )
    outcome = SartOutcome(
        fingerprint=fp,
        result=result,
        plan_fingerprint=plan.fingerprint,
        fub_fingerprints=fub_fps,
        fub_hits=hits,
        fub_misses=misses,
        warm=warm is not None,
        dirty_fubs=tuple(sorted(warm.dirty_fubs)) if warm is not None else (),
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

        derating = analytic_derating(design.module)
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
    seqs = extract_graph(design.netlist.module).seq_nets()
    plans = plan_campaign(
        seqs, golden.cycles - 2, spec.injections, seed=spec.seed,
        per_node=spec.per_node,
    )
    fp = stage_fingerprint(
        "sfi", design.fingerprint, golden.cycles, spec.injections, spec.seed,
        spec.per_node, max_cycles, lanes,
    )

    def compute():
        return run_sfi_campaign(
            list(design.program), list(design.dmem) if design.dmem else None,
            plans, netlist=design.netlist,
            workers=campaign.workers, lanes_per_pass=campaign.lanes_per_pass,
            max_cycles=max_cycles, runtime=_runtime_options(campaign),
        )

    # Checkpoint/resume semantics belong to the campaign runtime; a
    # cache hit would silently bypass them, so opt out entirely.
    use_cache = not (campaign.checkpoint or campaign.resume)
    started = time.perf_counter()
    if use_cache:
        result = ctx.store.load("sfi", fp)
        hit = result is not None
        if hit:
            ctx.store.hits += 1
        else:
            ctx.store.misses += 1
            result = compute()
            if not result.failures:
                try:
                    ctx.store.save("sfi", fp, result)
                except Exception:
                    pass
    else:
        result, hit = compute(), False
    ctx.events.append(StageEvent("sfi", fp, hit, time.perf_counter() - started))
    outcome = CampaignOutcome(
        fingerprint=fp, kind="sfi", result=result,
        injections=len(plans), golden_cycles=golden.cycles, cached=hit,
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

    use_cache = not (campaign.checkpoint or campaign.resume)
    started = time.perf_counter()
    if use_cache:
        result = ctx.store.load("beam", fp)
        hit = result is not None
        if hit:
            ctx.store.hits += 1
        else:
            ctx.store.misses += 1
            result = compute()
            if not result.failures:
                try:
                    ctx.store.save("beam", fp, result)
                except Exception:
                    pass
    else:
        result, hit = compute(), False
    ctx.events.append(StageEvent("beam", fp, hit, time.perf_counter() - started))
    outcome = CampaignOutcome(fingerprint=fp, kind="beam", result=result, cached=hit)
    ctx.notify("beam", outcome=outcome)
    return outcome
