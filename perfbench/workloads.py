"""The four workloads: inputs made from the seed, one op, its output.

Every workload goes through a public user path of the program:
``repro.pipeline.execute`` for the three batch workloads (the path every
``repro-sart`` subcommand takes) and the HTTP API of ``repro-sart serve``
for ``serve_mixed``. The program receives only generated inputs: design
references, an EXLIF file and run-spec documents.

An op returns an :class:`OpOutput`. Its ``key`` names the op's input;
ops with equal keys must produce equal ``output`` values, and on the
reference seed they must equal the recorded reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.pipeline import (
    ArtifactStore,
    ExportSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    SweepSpec,
    WorkloadsSpec,
    execute,
    spec_from_mapping,
)
from repro.pipeline.emit import run_summary
from repro.serve.jobs import stable_result
from serve_client import ServerProcess, get_json, request_job

# Batch set-up (input generation + warm-up op) and server boot are each
# repeated this many times per run; setup_s reports the median.
SETUP_REPS = 3


@dataclass
class OpOutput:
    key: str
    output: object
    extra: dict = field(default_factory=dict)


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def render(outcome, tracer=None) -> str:
    """Render what the CLI shows for *outcome* and return its digest.

    The SART report table (or one per sweep point) plus the run summary
    document the job server returns, with wall-clock fields and the
    design reference (which names a work-directory path) left out.
    """
    with tracer.span("render") if tracer else nullcontext():
        if outcome.sart is not None:
            tables = [outcome.sart.result.report.table()]
        else:
            tables = [p.result.report.table() for p in outcome.sweep]
        summary = stable_result(run_summary(outcome))
        summary.pop("design", None)
        return _digest(*tables, json.dumps(summary, sort_keys=True))


class Workload:
    """One workload: ``prepare`` makes inputs and warms up, ``op`` runs."""

    name = ""

    def prepare(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``prepare`` started."""


class BigcoreReport(Workload):
    """``repro-sart bigcore --scale 1 --workload-length 500`` without a
    cache directory: a cold run from design reference to rendered report.

    The design is scaled down from 4 and the ACE suite cut from its
    default 4000 to 500 instructions per workload, so that an op takes
    about 0.75 s and a run holds about 20 ops for a steady median; the
    generator, the ACE suite, plan lowering and relaxation share the op.
    """

    name = "bigcore_report"
    SCALE = 1
    ACE_LENGTH = 500

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed}")
        self.design_seed = rng.randrange(1, 1_000_000)
        self.ref = ""

    def prepare(self) -> None:
        self.ref = f"bigcore@scale={self.SCALE},seed={self.design_seed}"
        render(execute(RunSpec(
            design=f"bigcore@scale=0.25,seed={self.design_seed}",
            workloads=WorkloadsSpec(per_class=1, length=200),
        )))

    def op(self, k: int, tracer=None) -> OpOutput:
        outcome = execute(RunSpec(
            design=self.ref, workloads=WorkloadsSpec(length=self.ACE_LENGTH)))
        return OpOutput("report", render(outcome, tracer))


class ExlifSweep(Workload):
    """A systolic MAC array read back from EXLIF, swept over 16 points."""

    name = "exlif_sweep"
    # Near-square shapes with (almost) the same PE count, so the seed
    # varies the netlist without varying the work much.
    SHAPES = ((12, 12), (11, 13), (13, 11))
    POINTS = 16

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed}")
        self.rows, self.cols = rng.choice(self.SHAPES)
        self.path = os.path.join(workdir, "array.exlif")
        self.warm_path = os.path.join(workdir, "warm.exlif")

    def prepare(self) -> None:
        for path, rows, cols in ((self.path, self.rows, self.cols),
                                 (self.warm_path, 2, 2)):
            execute(RunSpec(design=f"systolic@rows={rows},cols={cols}",
                            export=ExportSpec(output=path)))
        render(execute(RunSpec(design=f"exlif:{self.warm_path}",
                               sweep=SweepSpec(points=self.POINTS))))

    def op(self, k: int, tracer=None) -> OpOutput:
        outcome = execute(RunSpec(design=f"exlif:{self.path}",
                                  sweep=SweepSpec(points=self.POINTS)))
        render(outcome, tracer)
        avfs = [p.result.report.weighted_seq_avf for p in outcome.sweep]
        return OpOutput(f"{self.rows}x{self.cols}", avfs)


class TinycoreValidate(Workload):
    """``repro-sart tinycore <prog> --sfi 378``: SART checked against SFI."""

    name = "tinycore_validate"
    # Programs whose golden runs are 365-412 cycles long, so an op costs
    # about the same whichever program a run reaches.
    PROGRAMS = ("histogram", "lattice2d", "memcpy")
    INJECTIONS = 378

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed}")
        self.order = rng.sample(self.PROGRAMS, len(self.PROGRAMS))
        self.sfi_seed = rng.randrange(1, 2**31)

    def prepare(self) -> None:
        render(execute(RunSpec(design="tinycore:fib", sart=SartSpec(),
                               sfi=SfiSpec(injections=16, seed=1))))

    def op(self, k: int, tracer=None) -> OpOutput:
        from repro.sfi import overall_avf

        program = self.order[k % len(self.order)]
        outcome = execute(RunSpec(
            design=f"tinycore:{program}", sart=SartSpec(),
            sfi=SfiSpec(injections=self.INJECTIONS, seed=self.sfi_seed),
        ))
        digest = render(outcome, tracer)
        campaign = outcome.sfi.result
        sfi_avf, _ = overall_avf(campaign.outcomes)
        return OpOutput(
            program,
            {"counts": campaign.counts(), "digest": digest},
            {"sart_avf": outcome.sart.result.report.weighted_seq_avf,
             "sfi_avf": sfi_avf},
        )


BATCH = {w.name: w for w in (BigcoreReport, ExlifSweep, TinycoreValidate)}


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

@dataclass
class Request:
    index: int
    kind: str                      # "repeat" or "fresh"
    document: dict
    traced: bool = False
    segment: int = 0               # the hostspeed.HostGauge segment
    reply: object = None           # serve_client.Reply


class ServeMixed(Workload):
    """A closed-loop client against ``repro-sart serve``.

    *repeat* requests resend a spec that already completed (a dedup hit:
    no execution, no journal write); *fresh* ones ask for a new
    ``loop_pavf`` on a program whose design, golden run and plan are
    cached (one execution, one journal append, one store write).

    Each block of :data:`BLOCK` requests is shuffled by the seed. Fresh
    requests are a large majority so that the median falls inside their
    latency mode; with repeats in the majority the median sat between a
    dedup hit served while a job runs and one served idle, and moved by
    70% between runs.

    One client, not two: with a second client the server's request
    threads contend with the running job for the interpreter lock, which
    cut throughput by up to 40% and made it vary twice as much between
    runs as the work itself.
    """

    name = "serve_mixed"
    PROGRAM = "fib"
    REPEAT_SPECS = 4
    BLOCK = ("fresh",) * 7 + ("repeat",)
    CHECKPOINT_S = 0.5

    def __init__(self, seed: int, workdir: str, src_dir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.src_dir = src_dir
        self.used: set[float] = set()
        self.repeats = [self._fresh_doc() for _ in range(self.REPEAT_SPECS)]
        self.server: ServerProcess | None = None
        self.stats_before: dict = {}
        self._boots = 0
        self._block: list[str] = []

    def _fresh_doc(self) -> dict:
        while True:
            value = round(self.rng.uniform(0.05, 0.95), 6)
            if value not in self.used:
                self.used.add(value)
                return {"design": f"tinycore:{self.PROGRAM}",
                        "sart": {"loop_pavf": value}}

    @staticmethod
    def key(document: dict) -> str:
        return repr(document["sart"]["loop_pavf"])

    def prepare(self) -> None:
        """Boot a fresh server and complete every repeat spec once."""
        self._boots += 1
        workdir = os.path.join(self.workdir, f"server{self._boots}")
        # Kept before it starts, so that close() stops a server whose
        # boot failed half way.
        self.server = ServerProcess(workdir, self.src_dir)
        self.server.start()
        for document in self.repeats:
            reply = request_job(self.server.host, self.server.port, document)
            if reply.error:
                raise RuntimeError(f"warm-up request failed: {reply.error}")

    def next_request(self, index: int) -> Request:
        if not self._block:
            kinds = list(self.BLOCK)
            self.rng.shuffle(kinds)
            self._block = kinds
        kind = self._block.pop()
        document = (self._fresh_doc() if kind == "fresh"
                    else self.rng.choice(self.repeats))
        return Request(index, kind, document)

    def run(self, seconds: float, gauge, tracer=None) -> list[Request]:
        """Closed loop for *seconds*, with a *gauge* checkpoint every
        :data:`CHECKPOINT_S` seconds of requests.

        A traced run alternates traced and untraced requests.
        """
        requests: list[Request] = []
        self.stats_before = self.server_stats()
        host, port = self.server.host, self.server.port
        traced = tracer is not None
        deadline = time.perf_counter() + seconds
        gauge.checkpoint()
        while time.perf_counter() < deadline:
            if gauge.since_checkpoint() >= self.CHECKPOINT_S:
                gauge.checkpoint()
            request = self.next_request(len(requests))
            request.traced = traced
            request.segment = gauge.segment
            if traced:
                with tracer.span("request", op=request.index,
                                 kind=request.kind):
                    request.reply = request_job(host, port, request.document,
                                                tracer=tracer)
            else:
                request.reply = request_job(host, port, request.document)
            requests.append(request)
            if tracer is not None:
                traced = not traced
        gauge.checkpoint()
        return requests

    def server_stats(self, tracer=None) -> dict:
        _, doc = get_json(self.server.host, self.server.port, "/stats",
                          tracer=tracer)
        return doc

    def expected(self, documents: list[dict]) -> dict[str, float]:
        """``weighted_seq_avf`` of each spec, executed locally."""
        store = ArtifactStore(os.path.join(self.workdir, "local-cache"))
        out = {}
        for document in documents:
            key = self.key(document)
            if key not in out:
                summary = run_summary(
                    execute(spec_from_mapping(document), store=store))
                out[key] = summary["weighted_seq_avf"]
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
