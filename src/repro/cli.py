"""Command-line interface: ``repro-sart`` / ``python -m repro``.

Every analysis subcommand is the :class:`~repro.pipeline.spec.RunSpec`
its flags describe, executed by :func:`_execute` through
:func:`~repro.pipeline.runner.execute` with the one terminal renderer,
:class:`~repro.pipeline.emit.RunRenderer`. A subcommand therefore
prints exactly what ``repro-sart run`` prints for the same spec,
followed only by its own post-run output (export files, the deadlines
table). Pass ``--cache-dir`` to any subcommand to persist expensive
stage artifacts (golden runs, the ACE workload suite, compiled solve
plans, campaign outcomes) in a content-addressed store; a warm rerun
then skips straight to the stages whose inputs changed.

Subcommands:

``analyze``
    Run SART on an EXLIF netlist with structure pAVFs from a simple
    ``name pavf_r pavf_w [avf]`` text file; prints the per-FUB report.
``tinycore``
    Run the tinycore flow for one benchmark program end to end (ACE ports
    -> SART -> report), optionally with an SFI comparison.
``bigcore``
    Generate bigcore, run the workload suite through the ACE model and
    SART, and print the Figure 9 style report.
``sweep``
    Loop-boundary pAVF sweep (the Figure 8 study) on bigcore.
``diff``
    Per-FUB structural diff between two design references: changed,
    added, and removed FUBs plus the dirty set, the static upper bound
    on the FUBs whose solution can differ. An ``eco`` re-solve seeds
    only the touched FUBs and grows its front by value, so it usually
    revisits far fewer.
``eco``
    Incremental SART re-solve: solve a baseline design, diff it against
    the edited design, and warm-start the edited solve so only the FUBs
    the edit influences re-solve — bit-identical to a cold run
    (``--check`` verifies it).
``export``
    Write a built-in design (tinycore with a program, or bigcore) as
    EXLIF or structural Verilog for external tools.
``sfi``
    Standalone statistical fault-injection campaign on a tinycore
    program, with ``--workers``/``--lanes-per-pass`` control over the
    simulation substrate.
``deadlines``
    Error-reporting deadline view: per-structure distributions of the
    cycles between a bit becoming corrupted and its architectural
    consumption, from the ACE lifetime analysis. ``--derating``
    additionally runs the per-flop logic-derating pass.
``beam``
    Simulated accelerated beam test (Poisson strikes into all storage)
    with the same worker controls.
``run``
    Execute a declarative TOML/JSON run-spec describing any composition
    of stages (docs/ARCHITECTURE.md documents the format).
``serve``
    Long-running HTTP/JSON job server: clients POST run-spec documents,
    the server dedups identical requests, executes them on the
    fault-tolerant campaign runtime, streams SSE progress, and survives
    crashes via a durable job journal (docs/ROBUSTNESS.md).
``loadgen``
    Concurrent load generator for a running ``serve`` instance; writes
    the ``BENCH_serve.json`` metrics document.
``verify``
    Adversarial self-check: budgeted fuzz loop over randomized designs
    and circuits with cross-engine / lane-isolation / metamorphic /
    statistical oracles, plus the golden regression corpus. Failing
    cases are shrunk to minimal reproducers (docs/TESTING.md).
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading

from repro import __version__
from repro.errors import ReproError
from repro.pipeline.spec import (
    BeamSpec,
    CampaignSpec,
    DeratingSpec,
    EcoSpec,
    ExportSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    SweepSpec,
    WorkloadsSpec,
)


def _store_from_args(args):
    path = getattr(args, "cache_dir", None)
    if not path:
        return None
    from repro.pipeline.store import ArtifactStore

    return ArtifactStore(path)


def _sart_spec(args) -> SartSpec:
    return SartSpec(
        loop_pavf=args.loop_pavf,
        iterations=args.iterations,
        monolithic=args.monolithic,
    )


def _workloads_spec(args) -> WorkloadsSpec:
    return WorkloadsSpec(per_class=args.workloads_per_class,
                         length=args.workload_length)


def _campaign_spec(args) -> CampaignSpec:
    # --resume implies checkpointing to the same file, so a run that is
    # interrupted *again* keeps extending the same checkpoint.
    return CampaignSpec(
        workers=getattr(args, "workers", 1),
        lanes_per_pass=getattr(args, "lanes_per_pass", None),
        max_retries=getattr(args, "max_retries", 3),
        pass_timeout=getattr(args, "pass_timeout", None),
        checkpoint=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", None),
        max_pool_restarts=getattr(args, "max_pool_restarts", 3),
    )


class _Terminated(BaseException):
    """SIGTERM, surfaced as an exception so ``finally`` blocks run.

    Derives from BaseException (like KeyboardInterrupt) so campaign
    code that catches ``Exception`` for retry accounting cannot swallow
    it: the runtime's ``finally`` blocks flush checkpoints and release
    worker pools, then the process exits 143 (128 + SIGTERM).
    """


@contextlib.contextmanager
def _sigterm_to_exception():
    """Turn SIGTERM into :class:`_Terminated` for the enclosed block.

    Signal handlers can only be installed from the main thread; when
    ``main()`` runs anywhere else (tests driving it from a worker
    thread) the default disposition is left alone.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        raise _Terminated()

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _interrupted(args, *, code: int = 130, label: str = "interrupted") -> int:
    """Uniform SIGINT/SIGTERM exit, hinting from the executed spec.

    By the time this runs the campaign runtime's ``finally`` blocks
    have already flushed every completed pass to the checkpoint file
    the spec names, so the message can promise the work is durable.
    """
    spec = getattr(args, "executed_spec", None)
    campaign = spec.campaign if spec is not None else CampaignSpec()
    path = campaign.checkpoint or campaign.resume
    # `run` takes its checkpoint from the spec file, the others from flags.
    resume, checkpoint = (
        (f"[campaign] resume = {path!r}", "[campaign] checkpoint")
        if args.command == "run" else (f"--resume {path}", "--checkpoint"))
    if path:
        print(f"\n{label} — completed passes are saved; rerun with "
              f"{resume} to continue", file=sys.stderr)
    else:
        print(f"\n{label} — no {checkpoint} was given, so progress was "
              "not saved", file=sys.stderr)
    return code  # 128 + signal number, the conventional shell exit code


def _execute(args, spec: RunSpec):
    """Run *spec* with the one terminal renderer, then the cache note.

    Every spec-building subcommand goes through here, so each prints
    what ``repro-sart run`` prints for the same spec.
    """
    from repro.pipeline.emit import RunRenderer, cache_note
    from repro.pipeline.runner import execute

    args.executed_spec = spec  # main()'s interrupt hint reads [campaign]
    outcome = execute(spec, store=_store_from_args(args),
                      observer=RunRenderer(spec))
    cache_note(outcome.events)
    return outcome


def _export_sart(args, outcome, *, export_json=None) -> None:
    from repro.pipeline.emit import export_sart

    export_sart(outcome.sart.result, export_csv=args.export_csv,
                export_fubs=args.export_fubs, export_json=export_json)


def _export_run_summary(args, outcome) -> None:
    if args.export_json:
        from repro.pipeline.emit import run_summary, write_json

        write_json(args.export_json,
                   run_summary(outcome, program=outcome.design.program_name))
        print(f"wrote run summary to {args.export_json}")


def _export_campaign(args, outcome) -> None:
    if args.export_json:
        from repro.pipeline.emit import export_campaign_json

        export_campaign_json(outcome, args.export_json, program=args.program)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_analyze(args) -> int:
    ref = f"exlif:{args.netlist}"
    if args.top:
        ref += f"@top={args.top}"
    outcome = _execute(args, RunSpec(design=ref, ports_file=args.ports,
                                     sart=_sart_spec(args)))
    _export_sart(args, outcome, export_json=args.export_json)
    return 0


def cmd_tinycore(args) -> int:
    outcome = _execute(args, RunSpec(
        design=f"tinycore:{args.program}",
        sart=_sart_spec(args),
        sfi=SfiSpec(injections=args.sfi, seed=1) if args.sfi else None,
        campaign=_campaign_spec(args),
    ))
    _export_sart(args, outcome, export_json=args.export_json)
    return 0


def cmd_sfi(args) -> int:
    outcome = _execute(args, RunSpec(
        design=f"tinycore:{args.program}",
        sfi=SfiSpec(injections=args.injections, seed=args.seed,
                    per_node=args.per_node),
        campaign=_campaign_spec(args),
    ))
    _export_campaign(args, outcome.sfi)
    return 0


def cmd_beam(args) -> int:
    outcome = _execute(args, RunSpec(
        design=f"tinycore:{args.program}",
        beam=BeamSpec(flux=args.flux, exposures=args.exposures,
                      seed=args.seed, include_arrays=args.include_arrays,
                      parity=args.parity),
        campaign=_campaign_spec(args),
    ))
    _export_campaign(args, outcome.beam)
    return 0


def cmd_deadlines(args) -> int:
    from repro.pipeline.emit import print_deadlines

    ref = args.design
    if ":" not in ref and "@" not in ref and not ref.startswith("bigcore"):
        ref = f"tinycore:{ref}"
    derating = None
    if args.derating or args.mc_trials:
        derating = DeratingSpec(mc_trials=args.mc_trials,
                                mc_seed=args.mc_seed)
    outcome = _execute(args, RunSpec(
        design=ref,
        workloads=_workloads_spec(args),
        derating=derating,
        campaign=_campaign_spec(args),
    ))
    env = outcome.port_env
    if env is None or not env.deadlines:
        print(f"{outcome.design.ref}: no deadline distributions — the "
              f"port source ({env.source if env else 'none'}) carries no "
              "event timing", file=sys.stderr)
        return 1
    print(f"{outcome.design.ref}: error-reporting deadlines "
          f"(cycles until consumption)")
    print_deadlines(env.deadlines)
    _export_run_summary(args, outcome)
    return 0


def cmd_bigcore(args) -> int:
    outcome = _execute(args, RunSpec(
        design=f"bigcore@scale={args.scale},seed={args.seed}",
        workloads=_workloads_spec(args),
        sart=_sart_spec(args),
    ))
    _export_sart(args, outcome, export_json=args.export_json)
    return 0


def cmd_sweep(args) -> int:
    _execute(args, RunSpec(
        design=f"bigcore@scale={args.scale},seed={args.seed}",
        workloads=_workloads_spec(args),
        sweep=SweepSpec(points=args.points),
    ))
    return 0


def cmd_diff(args) -> int:
    from repro.pipeline import delta as delta_mod
    from repro.pipeline.registry import resolve_design
    from repro.pipeline.runner import resolve
    from repro.pipeline.stages import PipelineContext, stage_plan

    ctx = PipelineContext(store=_store_from_args(args))
    plans = []
    for ref in (args.ref_a, args.ref_b):
        design = resolve(ctx, resolve_design(ref))
        plans.append((design, stage_plan(ctx, design, None)))
    (design_a, plan_a), (design_b, plan_b) = plans
    delta = delta_mod.diff_plans(
        plan_a.plan, plan_b.plan, ref_a=design_a.ref, ref_b=design_b.ref
    )
    print(f"design delta: {design_a.ref} -> {design_b.ref}")
    print(delta.table())
    if getattr(args, "export_json", None):
        from repro.pipeline.emit import write_json

        write_json(args.export_json, delta.to_mapping())
        print(f"wrote design delta to {args.export_json}")
    return 0


def cmd_eco(args) -> int:
    outcome = _execute(args, RunSpec(
        design=args.design,
        workloads=_workloads_spec(args),
        sart=_sart_spec(args),
        eco=EcoSpec(baseline=args.baseline, check=args.check),
    ))
    _export_sart(args, outcome)
    _export_run_summary(args, outcome)
    return 0


def cmd_export(args) -> int:
    if args.design == "tinycore":
        ref = f"tinycore:{args.program or 'fib'}"
        if args.parity:
            ref += "@parity=1"
    elif args.design == "systolic":
        ref = f"systolic@rows={args.rows},cols={args.cols}"
    else:
        ref = f"bigcore@scale={args.scale},seed={args.seed}"
    _execute(args, RunSpec(
        design=ref, export=ExportSpec(output=args.output, format=args.format)))
    return 0


def cmd_run(args) -> int:
    from repro.pipeline.spec import load_spec

    outcome = _execute(args, load_spec(args.spec))
    _export_run_summary(args, outcome)
    return 0

def cmd_serve(args) -> int:
    from repro.serve.server import ServeApp

    app = ServeApp(
        args.state_dir,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        workers=args.job_workers,
        queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        heartbeat=args.heartbeat,
        drain_grace=args.drain_grace,
        echo=print,
    )
    app.start()
    try:
        app.serve_forever()
    except (_Terminated, KeyboardInterrupt) as exc:
        app.drain()
        return 143 if isinstance(exc, _Terminated) else 130
    app.drain()
    return 0


def cmd_loadgen(args) -> int:
    from repro.serve.loadgen import run_load

    doc = run_load(
        args.url,
        clients=args.clients,
        requests=args.requests,
        dedup_burst=args.dedup_burst,
        job_timeout=args.job_timeout,
    )
    print(
        f"{doc['completed']}/{doc['requests']} jobs in {doc['seconds']:.2f}s "
        f"({doc['requests_per_second']:.1f} req/s)  "
        f"p50={doc['latency_p50_seconds'] * 1000:.0f}ms "
        f"p95={doc['latency_p95_seconds'] * 1000:.0f}ms"
    )
    burst = doc["dedup_burst"]
    print(
        f"dedup burst: {burst['requests']} identical requests -> "
        f"{burst['distinct_jobs']} job(s), {burst['executions']} execution(s)"
    )
    counters = doc.get("server_counters", {})
    if counters.get("eco_jobs"):
        print(
            f"eco: {counters['eco_jobs']} job(s), "
            f"{counters.get('warm_solves', 0)} warm / "
            f"{counters.get('cold_solves', 0)} cold"
        )
    for error in doc["errors"]:
        print(f"  ERROR {error}", file=sys.stderr)
    if args.out:
        from repro.pipeline.emit import write_json

        write_json(args.out, doc)
        print(f"wrote load report to {args.out}")
    return 1 if doc["errors"] else 0


def cmd_verify(args) -> int:
    from pathlib import Path

    from repro.verify import (
        VerifyOptions,
        bless_goldens,
        default_oracles,
        get_defect,
        replay,
        run_verify,
    )

    if args.list_oracles:
        for oracle in default_oracles():
            print(f"{oracle.name:18s} [{oracle.scope}]")
        return 0

    options = VerifyOptions(
        budget=args.budget,
        seed=args.seed,
        out_dir=Path(args.out),
        corpus_dir=Path(args.corpus) if args.corpus else None,
        oracle_names=tuple(args.oracle or ()),
        skip_global=args.no_sfi,
        skip_corpus=args.no_corpus,
        sfi_injections=args.sfi_injections,
    )
    if args.update_goldens:
        bless_goldens(options, log=print)
        print("goldens regenerated; review with "
              "`git diff src/repro/verify/corpus/`")
        return 0

    defect = get_defect(args.inject_defect) if args.inject_defect else None
    if defect is not None:
        print(f"injecting defect {defect.name!r}: {defect.description}")

    if args.replay:
        report = replay(Path(args.replay), options, defect=defect, log=print)
    else:
        report = run_verify(options, defect=defect, log=print)

    if report.violations:
        print(f"\n{len(report.violations)} violation(s):", file=sys.stderr)
        for v in report.violations[:20]:
            print(f"  {v}", file=sys.stderr)
        if len(report.violations) > 20:
            print(f"  ... and {len(report.violations) - 20} more",
                  file=sys.stderr)
        for path in report.reproducers:
            print(f"reproducer: {path}", file=sys.stderr)
        return 1
    print("all oracles clean")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sart",
        description="Sequential AVF computation (MICRO-48 2015 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def cache_opts(p):
        p.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed artifact store: reruns "
                            "reuse golden runs, the ACE suite, compiled "
                            "solve plans and campaign outcomes whose "
                            "fingerprints still match")

    def sim_opts(p):
        p.add_argument("--workers", type=int, default=1, metavar="N",
                       help="fan independent passes out across N processes "
                            "(seed-deterministic at any worker count)")
        p.add_argument("--lanes-per-pass", type=int, default=None, metavar="L",
                       help="fault lanes per simulator pass (default 63)")
        p.add_argument("--checkpoint", metavar="PATH",
                       help="append each completed pass to a JSONL checkpoint "
                            "so an interrupted campaign can be resumed")
        p.add_argument("--resume", metavar="PATH",
                       help="resume from a checkpoint, skipping already-"
                            "computed passes (implies --checkpoint PATH); "
                            "results are bit-identical to an uninterrupted run")
        p.add_argument("--max-retries", type=int, default=3, metavar="N",
                       help="total attempts per pass before it is recorded "
                            "as a structured failure (default 3)")
        p.add_argument("--pass-timeout", type=float, default=None, metavar="SEC",
                       help="soft per-pass timeout: stragglers are recorded "
                            "as timeout failures instead of hanging the "
                            "campaign (needs --workers >= 2)")
        p.add_argument("--max-pool-restarts", type=int, default=3, metavar="N",
                       help="worker-pool respawns after crashes before "
                            "degrading to serial execution (default 3)")

    def json_opts(p):
        p.add_argument("--export-json", metavar="PATH",
                       help="write a JSON summary of the results")

    def workload_opts(p, length=4000):
        p.add_argument("--workloads-per-class", type=int, default=2,
                       metavar="N",
                       help="ACE-suite workloads per class (default 2)")
        p.add_argument("--workload-length", type=int, default=length,
                       help=f"ACE-suite workload length (default {length})")

    def common(p):
        p.add_argument("--loop-pavf", type=float, default=0.3,
                       help="injected loop-boundary pAVF (paper: 0.3)")
        p.add_argument("--iterations", type=int, default=20,
                       help="relaxation iteration budget (paper: 20)")
        p.add_argument("--monolithic", action="store_true",
                       help="solve the whole graph at once instead of per FUB")
        p.add_argument("--export-csv", metavar="PATH",
                       help="write per-node AVFs as CSV")
        p.add_argument("--export-fubs", metavar="PATH",
                       help="write the per-FUB report as CSV")
        json_opts(p)
        cache_opts(p)

    p = sub.add_parser("analyze", help="run SART on an EXLIF netlist")
    p.add_argument("netlist", help="EXLIF file")
    p.add_argument("--top", help="top module name (default: first in file)")
    p.add_argument("--ports", help="structure pAVF table (name r w [avf])")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tinycore", help="full flow on a tinycore benchmark")
    p.add_argument("program", help="benchmark name (e.g. lattice2d, md5mix)")
    p.add_argument("--sfi", type=int, default=0, metavar="N",
                   help="also run an N-injection SFI campaign")
    common(p)
    sim_opts(p)
    p.set_defaults(func=cmd_tinycore)

    p = sub.add_parser("sfi", help="SFI campaign on a tinycore program")
    p.add_argument("program", help="benchmark name (e.g. fib, matmul)")
    p.add_argument("--injections", type=int, default=378, metavar="N",
                   help="number of injected faults (default 378)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--per-node", action="store_true",
                   help="inject N faults into every sequential node instead "
                        "of sampling the node x cycle space")
    json_opts(p)
    sim_opts(p)
    cache_opts(p)
    p.set_defaults(func=cmd_sfi)

    p = sub.add_parser("beam", help="simulated accelerated beam test")
    p.add_argument("program", help="benchmark name (e.g. fib, matmul)")
    p.add_argument("--flux", type=float, default=2e-5,
                   help="upset probability per storage bit per cycle")
    p.add_argument("--exposures", type=int, default=252, metavar="N",
                   help="device-runs under the beam")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--include-arrays", action="store_true",
                   help="also strike register file / data memory bits")
    p.add_argument("--parity", action="store_true",
                   help="use the parity-protected core (array strikes -> DUE)")
    json_opts(p)
    sim_opts(p)
    cache_opts(p)
    p.set_defaults(func=cmd_beam)

    p = sub.add_parser(
        "deadlines",
        help="error-reporting deadline view (cycles until consumption)")
    p.add_argument("design",
                   help="tinycore program (e.g. fib) or a design reference "
                        "(e.g. bigcore@scale=0.5)")
    p.add_argument("--derating", action="store_true",
                   help="also run the analytic per-flop logic-derating pass")
    p.add_argument("--mc-trials", type=int, default=0, metavar="N",
                   help="validate derating with an N-trial Monte-Carlo "
                        "masking campaign (tinycore only; implies "
                        "--derating)")
    p.add_argument("--mc-seed", type=int, default=11)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes for the MC campaign")
    workload_opts(p)
    json_opts(p)
    cache_opts(p)
    p.set_defaults(func=cmd_deadlines)

    p = sub.add_parser("bigcore", help="full flow on the synthetic big core")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    workload_opts(p)
    common(p)
    p.set_defaults(func=cmd_bigcore)

    p = sub.add_parser("export", help="write a built-in design as EXLIF/Verilog")
    p.add_argument("design", choices=("tinycore", "bigcore", "systolic"))
    p.add_argument("output", help="output file path")
    p.add_argument("--format", choices=("exlif", "verilog"), default="exlif")
    p.add_argument("--program", help="tinycore program to bake into the ROM")
    p.add_argument("--parity", action="store_true",
                   help="build the parity-protected tinycore variant")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rows", type=int, default=8,
                   help="systolic array rows (systolic design only)")
    p.add_argument("--cols", type=int, default=8,
                   help="systolic array columns (systolic design only)")
    cache_opts(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("sweep", help="loop-boundary pAVF sweep (Figure 8)")
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=42)
    workload_opts(p, length=3000)
    cache_opts(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "diff", help="per-FUB structural diff between two design references")
    p.add_argument("ref_a", help="baseline design reference "
                                 "(e.g. bigcore@scale=1)")
    p.add_argument("ref_b", help="target design reference "
                                 "(e.g. bigcore@scale=1,edit=LSU)")
    json_opts(p)
    cache_opts(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "eco", help="incremental SART re-solve against a baseline design")
    p.add_argument("design", help="edited design reference "
                                  "(e.g. bigcore@scale=1,edit=LSU)")
    p.add_argument("--baseline", required=True, metavar="REF",
                   help="baseline design reference the warm start is "
                        "seeded from")
    p.add_argument("--check", action="store_true",
                   help="also run the cold solve and verify the "
                        "incremental result is bit-identical")
    workload_opts(p)
    common(p)
    p.set_defaults(func=cmd_eco)

    p = sub.add_parser("run", help="execute a declarative TOML/JSON run-spec")
    p.add_argument("spec", help="run-spec file (.toml or .json)")
    json_opts(p)
    cache_opts(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "serve", help="HTTP/JSON job server over the analysis pipeline")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8137,
                   help="listen port (0 picks a free one; default 8137)")
    p.add_argument("--state-dir", default="serve-state", metavar="DIR",
                   help="durable server state: the job journal and "
                        "per-job campaign checkpoints (default "
                        "./serve-state)")
    p.add_argument("--job-workers", type=int, default=1, metavar="N",
                   help="worker processes executing jobs (1 runs jobs "
                        "in-process)")
    p.add_argument("--queue-limit", type=int, default=32, metavar="N",
                   help="max queued+running jobs before new submissions "
                        "get 429 + Retry-After (default 32)")
    p.add_argument("--job-timeout", type=float, default=None, metavar="SEC",
                   help="soft per-job timeout (needs --job-workers >= 2)")
    p.add_argument("--max-retries", type=int, default=2, metavar="N",
                   help="attempts per job before it is failed (default 2)")
    p.add_argument("--heartbeat", type=float, default=5.0, metavar="SEC",
                   help="SSE heartbeat interval (default 5)")
    p.add_argument("--drain-grace", type=float, default=30.0, metavar="SEC",
                   help="graceful-shutdown budget for in-flight jobs "
                        "(default 30)")
    cache_opts(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen", help="drive a running serve instance, emit bench metrics")
    p.add_argument("--url", default="http://127.0.0.1:8137",
                   help="base URL of the job server")
    p.add_argument("--clients", type=int, default=4, metavar="N",
                   help="concurrent client threads (default 4)")
    p.add_argument("--requests", type=int, default=8, metavar="N",
                   help="distinct jobs in the throughput phase (default 8)")
    p.add_argument("--dedup-burst", type=int, default=8, metavar="N",
                   help="identical concurrent requests in the dedup "
                        "phase (default 8)")
    p.add_argument("--job-timeout", type=float, default=120.0, metavar="SEC",
                   help="per-job completion wait (default 120)")
    p.add_argument("--out", metavar="PATH",
                   help="write the metrics document as JSON "
                        "(BENCH_serve.json shape)")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "verify",
        help="adversarial self-check: fuzz + oracles + golden corpus")
    p.add_argument("--budget", type=float, default=60.0, metavar="SEC",
                   help="fuzz wall-clock budget in seconds (default 60)")
    p.add_argument("--seed", type=int, default=0,
                   help="fuzz RNG seed (default 0)")
    p.add_argument("--out", default="verify-failures", metavar="DIR",
                   help="where shrunk reproducers are written")
    p.add_argument("--corpus", metavar="DIR",
                   help="golden corpus directory (default: the shipped "
                        "corpus in src/repro/verify/corpus/)")
    p.add_argument("--oracle", action="append", metavar="NAME",
                   help="run only this oracle (repeatable; "
                        "see --list-oracles)")
    p.add_argument("--list-oracles", action="store_true",
                   help="list the shipped oracles and exit")
    p.add_argument("--update-goldens", action="store_true",
                   help="regenerate the golden corpus expectations and "
                        "exit (review the git diff before committing)")
    p.add_argument("--no-sfi", action="store_true",
                   help="skip the SFI-vs-analytical tinycore check")
    p.add_argument("--no-corpus", action="store_true",
                   help="skip the golden corpus check")
    p.add_argument("--sfi-injections", type=int, default=192, metavar="N",
                   help="injection count for the SFI consistency oracle")
    p.add_argument("--inject-defect", metavar="NAME",
                   help="mutation-kill mode: corrupt one engine seam and "
                        "prove the matching oracle catches it (CI uses "
                        "this as a must-fail check)")
    p.add_argument("--replay", metavar="PATH",
                   help="re-run the oracles recorded in a reproducer file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _sigterm_to_exception():
            return args.func(args)
    except _Terminated:
        # The runtime's finally blocks already flushed checkpoints and
        # released worker pools on the way up.
        return _interrupted(args, code=143, label="terminated")
    except KeyboardInterrupt:
        return _interrupted(args)
    except ReproError as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
