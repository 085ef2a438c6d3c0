"""The repository benchmark: one seeded workload, end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bigcore_report --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times every op untraced and reports the end-to-end
metrics. ``--trace 1`` alternates traced and untraced ops on the same
inputs and reports the per-layer metrics derived from the spans, plus
the tracing overhead (traced minus untraced op latency). Both modes
check every op's output.

The end-to-end times are scaled to the reference host speed by the
reference loop of :mod:`hostspeed`, timed between ops; the unscaled
figures are printed beside them and reported per layer. Human-readable
lines come first; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--record-reference`` (reference seed only) stores the run's outputs in
``reference.json``, which later runs on that seed are checked against.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 1
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"


def load_catalog() -> dict:
    """Workload names and metric ``(name, unit)`` pairs, from
    ``BENCHMARK.json``, which owns them."""
    with open(CATALOG_PATH) as handle:
        doc = json.load(handle)
    return {
        "workloads": [w["name"] for w in doc["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in doc["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in doc["per_layer"]],
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--record-reference needs --seed {REFERENCE_SEED}")
    return args


class Checker:
    """Compares each op's output with the run's first op of the same key
    and, on the reference seed, with the recorded reference."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[str, object] = {}

    def __call__(self, key: str, output) -> str | None:
        output = json.loads(json.dumps(output))
        first = self.first.setdefault(key, output)
        if output != first:
            return f"{key}: output differs from the run's first op"
        if self.reference is not None and key in self.reference:
            if self.reference[key] != output:
                return f"{key}: output differs from the reference"
        return None


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED or not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH) as handle:
        return json.load(handle).get(workload)


def save_reference(workload: str, outputs: dict) -> None:
    doc = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as handle:
            doc = json.load(handle)
    doc[workload] = outputs
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------

def run_batch(wl, seconds: float, tracer, check, ledger, gauge):
    """Closed loop, one caller. Traced runs do each input twice in a
    row, traced then untraced, so the pair's difference is the tracing
    overhead. Returns the per-op records.

    A gauge checkpoint sits between every two ops, so each op is a
    segment of its own and starts from a collected heap, as a fresh CLI
    process would.
    """
    from spans import instrument

    records = []
    deadline = time.perf_counter() + seconds
    gauge.checkpoint()
    k = 0
    while time.perf_counter() < deadline:
        for traced in ((True, False) if tracer is not None else (False,)):
            op_id = len(records)
            error = out = None
            t0 = time.perf_counter()
            try:
                if traced:
                    with instrument(tracer), tracer.span("op", op=op_id):
                        out = wl.op(k, tracer)
                else:
                    out = wl.op(k)
                seconds_op = time.perf_counter() - t0
                error = check(out.key, out.output)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                seconds_op = time.perf_counter() - t0
                error = f"op {op_id}: {type(exc).__name__}: {exc}"
            ledger.record(error)
            records.append({"k": k, "traced": traced, "seconds": seconds_op,
                            "segment": gauge.segment,
                            "ok": error is None, "out": out})
            gauge.checkpoint()
        k += 1
    return records


def batch_layers(tracer) -> dict:
    """Per-layer metrics of the traced ops: median over ops."""
    from opstats import median
    from spans import self_seconds

    spans = tracer.spans
    selfs = self_seconds(spans)
    per_op: dict = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        if s.op is None:
            continue
        m = per_op[s.op]
        a = s.attrs
        parent = spans[s.parent].name if s.parent is not None else None
        if s.name == "stage_design":
            if a.get("kind") == "exlif":
                m["netlist.parse_s"] += s.seconds
                m["netlist.rss_growth_mb"] += s.rss_growth_mb
            else:
                m["designs.build_s"] += s.seconds
        elif s.name == "stage_ace_ports":
            m["ace.suite_s"] += s.seconds
            m["ace.rss_growth_mb"] += s.rss_growth_mb
        elif s.name == "stage_archsim_ports":
            m["ace.archsim_s"] += s.seconds
        elif s.name == "build_plan":
            m["plan.build_s"] += s.seconds
            m["plan.nodes"] += a["nodes"]
            m["plan.rss_growth_mb"] += s.rss_growth_mb
        elif s.name == "run_sart":
            m["sart.solve_s"] += s.seconds
            m["sart.nodes"] += a["nodes"]
            m["sart.iterations"] += a["iterations"]
            m["sart.resolved_fubs"] += a["resolved_fubs"]
        elif s.name == "solve_monolithic" and parent == "sweep_batched":
            m["batched.monolithic_s"] += s.seconds
        elif s.name == "sweep_batched":
            m["batched.sweep_s"] += selfs[i]
            m["_sweep_total_s"] += s.seconds
            m["batched.points"] += a["points"]
            m["batched.rss_growth_mb"] += s.rss_growth_mb
        elif s.name == "stage_golden":
            m["rtlsim.golden_s"] += s.seconds
            m["rtlsim.cycles"] += a["cycles"]
        elif s.name == "run_sfi_campaign":
            m["sfi.campaign_s"] += s.seconds
            m["sfi.injections"] += a["injections"]
            m["sfi.failed_passes"] += a["failed_passes"]
            m["_sfi_unknown"] += a["unknown"]
        elif s.name == "render":
            m["report.render_s"] += s.seconds
    for m in per_op.values():
        m["plan.nodes_per_s"] = _ratio(m["plan.nodes"], m["plan.build_s"])
        m["sart.nodes_per_s"] = _ratio(m["sart.nodes"], m["sart.solve_s"])
        m["batched.points_per_s"] = _ratio(m["batched.points"],
                                           m["_sweep_total_s"])
        m["rtlsim.cycles_per_s"] = _ratio(m["rtlsim.cycles"],
                                          m["rtlsim.golden_s"])
        m["sfi.injections_per_s"] = _ratio(m["sfi.injections"],
                                           m["sfi.campaign_s"])
        m["sfi.unknown_ratio"] = _ratio(m["_sfi_unknown"], m["sfi.injections"])
    names = {name for m in per_op.values() for name in m}
    return {name: median(m[name] for m in per_op.values()) for name in names}


def overhead_pairs(records) -> float:
    """Median over inputs of (traced - untraced) op latency."""
    from opstats import median

    by_k = defaultdict(dict)
    for r in records:
        if r["ok"]:
            by_k[r["k"]][r["traced"]] = r["seconds"]
    return median(p[True] - p[False] for p in by_k.values() if len(p) == 2)


def measure_batch(wl, args, tracer, check, ledger, gauge) -> dict:
    records = run_batch(wl, args.seconds, tracer, check, ledger, gauge)
    untraced = [r for r in records if r["ok"] and not r["traced"]]
    pairs = [(r["out"].extra["sart_avf"], r["out"].extra["sfi_avf"])
             for r in records if r["ok"] and "sfi_avf" in r["out"].extra]
    layers = {}
    if tracer is not None:
        layers = batch_layers(tracer)
        layers["trace.ops"] = sum(r["traced"] for r in records)
        layers["trace.overhead_s"] = overhead_pairs(records)
    return {
        "latencies": [(r["seconds"], r["segment"]) for r in untraced],
        "pairs": pairs,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

def check_serve(wl, requests, check, ledger) -> None:
    """Count every request; a served AVF must match a local execute."""
    served = [r for r in requests if r.reply.error is None]
    expected = wl.expected([r.document for r in served])
    for r in requests:
        error = r.reply.error
        if error is None:
            key = wl.key(r.document)
            avf = r.reply.job["result"]["weighted_seq_avf"]
            if avf != expected[key]:
                error = f"{key}: served {avf!r}, local execute {expected[key]!r}"
            else:
                error = check(key, avf)
        ledger.record(None if error is None else f"request {r.index}: {error}")


def serve_layers(tracer, requests, before: dict, after: dict) -> dict:
    """Per-layer figures of the server. The phase split comes from the
    job snapshots' timestamps, the dedup share from the ``/stats``
    counters taken around the timed phase, and the store's hit share
    from the stages each executed job reports as cached."""
    from opstats import median

    admit = [s.seconds for s in tracer.spans if s.name == "POST /jobs"]
    ok = [r for r in requests if r.reply.error is None]
    executed = [r.reply for r in ok if not r.reply.deduplicated]
    counters = {name: after["counters"].get(name, 0)
                - before["counters"].get(name, 0)
                for name in ("requests", "dedup_hits")}
    lookups = sum(len(j.job["result"]["stages"]) for j in executed)
    hits = sum(len(j.job["result"]["cached_stages"]) for j in executed)
    traced = [r.reply.seconds for r in ok if r.traced]
    untraced = [r.reply.seconds for r in ok if not r.traced]
    return {
        "serve.requests": counters["requests"],
        "serve.admit_s": median(admit),
        "serve.queue_wait_s": median(j.job["started_at"] - j.job["submitted_at"]
                                     for j in executed),
        "serve.exec_s": median(j.job["finished_at"] - j.job["started_at"]
                               for j in executed),
        "serve.notify_s": median(j.ended_wall - j.job["finished_at"]
                                 for j in executed),
        "serve.repeat_p50_s": median(r.reply.seconds for r in ok
                                     if r.kind == "repeat"),
        "serve.fresh_p50_s": median(r.reply.seconds for r in ok
                                    if r.kind == "fresh"),
        "serve.dedup_ratio": _ratio(counters["dedup_hits"],
                                    counters["requests"]),
        "serve.rejected": sum(r.reply.status == 429 for r in requests),
        "store.lookups": lookups,
        "store.hit_ratio": _ratio(hits, lookups),
        "trace.ops": len(traced),
        "trace.overhead_s": (median(traced) - median(untraced)
                             if traced and untraced else 0.0),
    }


def measure_serve(wl, args, tracer, check, ledger, gauge) -> dict:
    requests = wl.run(args.seconds, gauge, tracer)
    stats = wl.server_stats(tracer)
    peak_rss_mb = wl.server.peak_rss_mb()
    wl.close()
    check_serve(wl, requests, check, ledger)
    ok = [r for r in requests if r.reply.error is None]
    layers = {}
    if tracer is not None:
        layers = serve_layers(tracer, requests, wl.stats_before, stats)
    return {
        "latencies": [(r.reply.seconds, r.segment)
                      for r in ok if not r.traced],
        "pairs": [],
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def op_figures(latencies, ledger, pairs) -> dict:
    """The end-to-end figures without a bound, reported per layer.

    *pairs* holds one ``(sart_avf, sfi_avf)`` per validated op.
    """
    from opstats import percentile, tail_level

    level = tail_level(len(latencies))
    return {
        "op.error_rate": ledger.error_rate,
        "op.samples": len(latencies),
        "op.tail_pct": level or 0.0,
        "op.tail_s": percentile(latencies, level) if level else 0.0,
        "accuracy.avf_abs_err": _ratio(sum(abs(a - b) for a, b in pairs),
                                       len(pairs)),
        "accuracy.ops": len(pairs),
    }


def host_facts() -> dict:
    from repro.core.compiled import HAVE_NUMPY

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": HAVE_NUMPY}


def main(argv=None) -> int:
    catalog = load_catalog()
    args = parse_args(argv, catalog["workloads"])
    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src_dir}/repro; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)
    import workloads  # noqa: E402 - needs src on sys.path
    from hostspeed import NOMINAL_S, HostGauge
    from opstats import OpLedger, median
    from spans import Tracer

    import_s = time.perf_counter() - PROCESS_START
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    ledger = OpLedger()
    # Recording replaces the reference, so the old one checks nothing.
    check = Checker(None if args.record_reference
                    else load_reference(args.workload, args.seed))
    if args.workload == "serve_mixed":
        wl = workloads.ServeMixed(args.seed, workdir, src_dir)
        measure = measure_serve
    else:
        wl = workloads.BATCH[args.workload](args.seed, workdir)
        measure = measure_batch
    try:
        setup = HostGauge()
        setup.checkpoint()
        prepare_s = []
        for rep in range(workloads.SETUP_REPS):
            if rep:
                wl.close()
            t0 = time.perf_counter()
            wl.prepare()
            prepare_s.append(time.perf_counter() - t0)
            setup.checkpoint()
        setup_s = import_s * NOMINAL_S / setup.refs[0] + median(
            t * setup.scale(rep) for rep, t in enumerate(prepare_s))
        gauge = HostGauge()
        run = measure(wl, args, tracer, check, ledger, gauge)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    completed = ledger.attempted - ledger.failed
    raw = [seconds for seconds, _ in run["latencies"]]
    scaled = [seconds * gauge.scale(segment)
              for seconds, segment in run["latencies"]]
    metrics = {
        "setup_s": setup_s,
        "ops_per_norm_s": completed / gauge.scaled_wall,
        "op_p50_norm_s": median(scaled, float("nan")),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    figures = op_figures(raw, ledger, run["pairs"])
    layers = {
        **run["layers"], **figures,
        "op.raw_ops_per_s": completed / gauge.wall,
        "op.raw_p50_s": median(raw, float("nan")),
        "host.ref_loop_s": median(gauge.refs),
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    print("host " + "  ".join(f"{k} {v}" for k, v in host_facts().items()))
    print(f"ops attempted {ledger.attempted}  failed {ledger.failed}  "
          f"error_rate {ledger.error_rate:.6f} fraction")
    for name, unit in catalog["end_to_end"]:
        print(f"{name} {metrics[name]:.6f} {unit}")
    print(f"  unscaled: setup_s = imports {import_s:.6f} s + median set-up "
          "of " + ", ".join(f"{t:.6f}" for t in prepare_s) + " s")
    print(f"  unscaled: ops_per_s {layers['op.raw_ops_per_s']:.6f} op/s  "
          f"op_p50_s {layers['op.raw_p50_s']:.6f} s  reference loop "
          f"{layers['host.ref_loop_s']:.6f} s (nominal {NOMINAL_S} s, "
          f"{len(gauge.refs)} checkpoints)")
    if figures["op.tail_pct"]:
        print(f"op_p{figures['op.tail_pct']:g}_s {figures['op.tail_s']:.6f} s "
              f"({figures['op.samples']} samples)")
    if figures["accuracy.ops"]:
        print(f"avf_abs_err {figures['accuracy.avf_abs_err']:.6f} AVF "
              f"(mean |SART - SFI| over {figures['accuracy.ops']} ops)")
    for failure in ledger.failures[:10]:
        print(f"FAILED {failure}")

    if args.trace:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        spans_path = os.path.join(
            root, OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, root)}")
        # A layer the workload does not reach reads 0.
        for name, unit in catalog["per_layer"]:
            print(f"{name} {layers.get(name, 0.0):.6f} {unit}")
        chosen = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                  for name, unit in catalog["per_layer"]}
    else:
        chosen = {name: {"value": float(metrics[name]), "unit": unit}
                  for name, unit in catalog["end_to_end"]}

    if args.record_reference and not ledger.failed:
        save_reference(args.workload, check.first)
        print(f"reference recorded for {args.workload}")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
