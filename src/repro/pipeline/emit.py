"""Shared result-emission layer: human tables and machine summaries.

Every flow renders its results through these helpers. On the terminal
that is one renderer, :class:`RunRenderer`: every CLI subcommand that
builds a run-spec (``run`` included) passes it to
:func:`~repro.pipeline.runner.execute` as the observer, so SART reports,
campaign summaries and ``--export-*`` files come out identically no
matter which entry point produced them. Campaign flows gain
machine-readable ``--export-json`` here (backed by the ``to_summary()``
methods on :class:`~repro.sfi.injector.CampaignResult` and
:class:`~repro.ser.beam.BeamResult`).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping


def write_json(path: str, payload: Mapping[str, Any]) -> None:
    """Write a JSON document with stable formatting."""
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True))
        handle.write("\n")


def print_stats(result, echo: Callable[[str], None] = print) -> None:
    """The one-line run statistics footer of a SART report."""
    s = result.stats
    echo(
        f"nodes={int(s['nodes'])} sequentials={int(s['sequentials'])} "
        f"loops={int(s['loop_bits'])} ctrl={int(s['ctrl_bits'])} "
        f"visited={s['visited_fraction']:.1%} elapsed={result.elapsed_seconds:.2f}s"
    )


def export_sart(
    result,
    *,
    export_csv: str | None = None,
    export_fubs: str | None = None,
    export_json: str | None = None,
    echo: Callable[[str], None] = print,
) -> None:
    """Write the per-node/per-FUB/summary export files a flow asked for."""
    from repro.core.export import fub_report_csv, node_avfs_csv, summary_json

    if export_csv:
        with open(export_csv, "w") as handle:
            handle.write(node_avfs_csv(result))
        echo(f"wrote per-node AVFs to {export_csv}")
    if export_fubs:
        with open(export_fubs, "w") as handle:
            handle.write(fub_report_csv(result))
        echo(f"wrote per-FUB report to {export_fubs}")
    if export_json:
        with open(export_json, "w") as handle:
            handle.write(summary_json(result))
        echo(f"wrote summary to {export_json}")


def print_deadlines(
    deadlines: Mapping[str, Mapping[str, Any]],
    echo: Callable[[str], None] = print,
) -> None:
    """Render the per-structure error-reporting deadline table.

    One row per structure: how many consumption events were observed and
    the p50/p95/max/mean cycles an error detector has before a corrupted
    value in that structure is architecturally consumed.
    """
    header = (f"{'structure':<16} {'events':>8} {'p50':>7} {'p95':>7} "
              f"{'max':>7} {'mean':>9}")
    echo(header)
    echo("-" * len(header))
    for name in sorted(deadlines):
        s = deadlines[name]
        echo(
            f"{name:<16} {int(s.get('events', 0)):>8} "
            f"{int(s.get('p50', 0)):>7} {int(s.get('p95', 0)):>7} "
            f"{int(s.get('max', 0)):>7} {float(s.get('mean', 0.0)):>9.2f}"
        )


def deadline_payload(deadlines: Mapping[str, Mapping[str, Any]]) -> dict:
    """JSON-safe per-structure deadline section for run summaries.

    Quantiles and the conservation context only — the raw histograms
    stay on the PortEnv artifact (they can hold one bucket per distinct
    lifetime on big designs).
    """
    out: dict = {}
    for name, s in deadlines.items():
        out[name] = {
            "events": int(s.get("events", 0)),
            "p50": int(s.get("p50", 0)),
            "p95": int(s.get("p95", 0)),
            "max": int(s.get("max", 0)),
            "mean": float(s.get("mean", 0.0)),
            "mass_cycles": float(s.get("mass_cycles", 0.0)),
            "ace_bit_cycles": float(s.get("ace_bit_cycles", 0.0)),
            "cycles": int(s.get("cycles", 0)),
        }
    return out


def print_derating(
    artifact,
    echo: Callable[[str], None] = print,
) -> None:
    """Render the logic-derating population summary of one run."""
    s = artifact.summary
    echo(
        f"logic derating: {int(s.get('flops', 0))} flops  "
        f"mean={float(s.get('mean', 0.0)):.4f}  "
        f"min={float(s.get('min', 0.0)):.4f}  "
        f"p50={float(s.get('p50', 0.0)):.4f}  "
        f"max={float(s.get('max', 0.0)):.4f}"
    )
    if artifact.derated_seq_avf is not None:
        echo(f"derated sequential AVF (mean avf x derating): "
             f"{artifact.derated_seq_avf:.4f}")
    if artifact.mc:
        mc = artifact.mc
        echo(
            f"MC masking validation: {int(mc.get('trials', 0))} trials, "
            f"propagation rate {float(mc.get('rate', 0.0)):.4f} "
            f"(analytic mean {float(s.get('mean', 0.0)):.4f})"
        )


def derating_payload(artifact) -> dict:
    """JSON-safe derating section for run summaries.

    Population summary and the derated sequential AVF only — the
    per-flop factor table stays on the artifact (it has one entry per
    flop, six-figure designs included).
    """
    out: dict = {"summary": dict(artifact.summary)}
    if artifact.derated_seq_avf is not None:
        out["derated_seq_avf"] = float(artifact.derated_seq_avf)
    if artifact.mc:
        out["mc"] = dict(artifact.mc)
    return out


def campaign_summary(outcome, *, program: str | None = None) -> dict:
    """Machine-readable summary of a CampaignOutcome (sfi or beam)."""
    payload = dict(outcome.result.to_summary())
    payload["fingerprint"] = outcome.fingerprint
    payload["cached"] = outcome.cached
    if program is not None:
        payload["program"] = program
    if outcome.kind == "sfi":
        payload["planned_injections"] = outcome.injections
        payload["golden_cycles"] = outcome.golden_cycles
    return payload


def run_summary(outcome, *, program: str | None = None) -> dict:
    """JSON-safe summary of one executed run-spec.

    The one document every front end serves: ``repro-sart run
    --export-json`` writes it and the job server returns it as the job
    result, so a spec executed over HTTP and the same spec executed
    locally produce byte-identical summaries.
    """
    payload: dict = {
        "design": outcome.design.ref,
        "stages": [e.stage for e in outcome.events],
        "cached_stages": sorted({e.stage for e in outcome.events if e.cached}),
    }
    if outcome.sart is not None:
        payload["weighted_seq_avf"] = outcome.sart.result.report.weighted_seq_avf
    if outcome.port_env is not None and outcome.port_env.deadlines:
        payload["deadlines"] = deadline_payload(outcome.port_env.deadlines)
    if outcome.derating is not None:
        payload["derating"] = derating_payload(outcome.derating)
    if outcome.sweep:
        payload["sweep"] = [
            {"loop_pavf": p.value,
             "weighted_seq_avf": p.result.report.weighted_seq_avf}
            for p in outcome.sweep
        ]
    if outcome.sfi is not None:
        payload["sfi"] = campaign_summary(outcome.sfi, program=program)
    if outcome.beam is not None:
        payload["beam"] = campaign_summary(outcome.beam, program=program)
    if outcome.export_path:
        payload["export"] = outcome.export_path
    return payload


def export_campaign_json(
    outcome,
    path: str,
    *,
    program: str | None = None,
    echo: Callable[[str], None] = print,
) -> None:
    """``--export-json`` for campaign flows (shared sfi/beam emitter)."""
    write_json(path, campaign_summary(outcome, program=program))
    echo(f"wrote {outcome.kind} summary to {path}")


def print_runtime_summary(result, echo: Callable[[str], None] = print) -> None:
    """Fault-tolerant-runtime footer of a campaign result (sfi or beam)."""
    if result.resumed_passes:
        echo(f"  resumed: {result.resumed_passes} pass(es) loaded from checkpoint")
    if result.pool_restarts or result.degraded:
        note = f"  runtime: worker pool respawned {result.pool_restarts} time(s)"
        if result.degraded:
            note += "; degraded to serial execution"
        echo(note)
    failures = result.failures
    if failures:
        echo(f"  WARNING: {len(failures)} pass(es) failed permanently:")
        for f in failures[:5]:
            echo(f"    pass {f.index}: {f.kind} after {f.attempts} "
                 f"attempt(s): {f.error}")
        if len(failures) > 5:
            echo(f"    ... and {len(failures) - 5} more")


def cache_note(outcome_events, echo: Callable[[str], None] = print) -> None:
    """One-line warm-cache note listing which stages were reused."""
    cached = [e.stage for e in outcome_events if e.cached]
    if cached:
        echo(f"cache: reused {', '.join(sorted(set(cached)))} artifact(s)")


class RunRenderer:
    """The terminal view of one executed run-spec.

    An :func:`~repro.pipeline.runner.execute` observer that prints each
    stage's result as its event arrives. Every spec-building subcommand
    renders through it, so a subcommand prints exactly what
    ``repro-sart run`` prints for the same spec.
    """

    def __init__(self, spec):
        self.workers = spec.campaign.workers
        self.name: str | None = None  # the run's program, else its design ref
        self.golden = None

    def __call__(self, event: str, info: Mapping[str, Any]) -> None:
        if event == "design":
            artifact = info["artifact"]
            if self.name is None:
                self.name = artifact.program_name or artifact.ref
            if artifact.kind == "bigcore":
                design = artifact.design
                print(f"bigcore: {design.seq_count()} sequentials, "
                      f"{len(design.array_names())} arrays")
            else:
                print(f"design: {artifact.describe()}")
        elif event == "golden":
            self.golden = info["golden"]
        elif event == "ports":
            env = info["port_env"]
            if env.source == "archsim":
                print(f"golden run: {self.golden.cycles} cycles, "
                      f"ACE fraction {env.ace_fraction:.2f}")
                for name, p in sorted(env.ports.items()):
                    print(f"  structure {name:6s} pAVF_R={p.pavf_r:.3f} "
                          f"pAVF_W={p.pavf_w:.3f} AVF={p.avf:.3f}")
            elif env.source == "ace-suite":
                print(env.ace_table)
        elif event == "ace:run":
            print(f"running {info['workloads']} workloads through "
                  f"the ACE model...")
        elif event == "ace:cached":
            print(f"ACE suite: {info['workloads']} workloads reused from cache")
        elif event == "plan":
            plan = info["plan"]
            verb = "reused from cache" if plan.cached else "lowered"
            print(f"solve plan: {plan.n} nodes {verb} in {info['seconds']:.2f}s")
        elif event == "sart":
            from repro.core.report import average_seq_avf

            result = info["outcome"].result
            print(result.report.table())
            print_stats(result)
            print(f"average sequential AVF: "
                  f"{average_seq_avf(result.node_avfs):.4f}")
        elif event == "derating":
            print_derating(info["derating"])
        elif event == "sweep:begin":
            print("loop_pavf  avg_seq_avf  seconds")
        elif event == "sweep:batched":
            print(f"batched sweep: {info['points']} workloads in "
                  f"{info['seconds']:.3f}s "
                  f"({info['nodes_per_second']:,.0f} nodes/s)")
        elif event == "sweep:point":
            print(f"{info['value']:9.2f}  "
                  f"{info['result'].report.weighted_seq_avf:.4f}  "
                  f"{info['seconds']:7.3f}")
        elif event == "sfi":
            from repro.sfi import overall_avf

            outcome = info["outcome"]
            campaign = outcome.result
            avf, (lo, hi) = overall_avf(campaign.outcomes)
            print(f"{self.name}: SFI ({outcome.injections} injections) over "
                  f"{outcome.golden_cycles} cycles "
                  f"(workers={self.workers}, passes={campaign.passes})")
            print(f"  counts: {campaign.counts()}")
            print(f"  SDC AVF={avf:.3f} [{lo:.3f},{hi:.3f}]  "
                  f"DUE AVF={campaign.due_avf():.3f}")
            print(f"  {campaign.simulated_cycles} simulated cycles "
                  f"({campaign.stepped_cycles} stepped) "
                  f"in {campaign.elapsed_seconds:.2f}s")
            print_runtime_summary(campaign)
        elif event == "beam":
            result = info["outcome"].result
            lo, hi = result.rate_interval()
            print(f"{self.name}: {result.exposures} exposures x "
                  f"{result.cycles_per_run} cycles under flux {result.flux:g} "
                  f"(workers={self.workers})")
            print(f"  {result.strikes} strikes into {result.storage_bits} "
                  f"storage bits: {result.sdc_events} SDC, "
                  f"{result.due_events} DUE")
            print(f"  SDC rate {result.sdc_rate_per_cycle:.3e}/cycle "
                  f"[{lo:.3e},{hi:.3e}] in {result.elapsed_seconds:.2f}s")
            print_runtime_summary(result)
        elif event == "export":
            print(f"wrote {info['format']} to {info['path']} "
                  f"({len(info['module'].instances)} instances)")
