"""One pass runner for lane-packed tinycore campaigns.

SFI (:mod:`repro.sfi.injector`), the simulated beam test
(:mod:`repro.ser.beam`) and the Monte-Carlo masking estimator
(:mod:`repro.ser.derating`) are one kind of campaign: lane 0 of every
simulator pass is golden, each planned trial owns one fault lane, and
passes run on the fault-tolerant runtime (:mod:`repro.sfi.runtime`).
Each campaign keeps only its plan, its per-pass function and the fold of
per-trial verdicts into its result; the worker payload, the per-process
simulator cache, the pass schedule, the runtime bookkeeping and the lane
verdict live here.

Passes fork from the golden lane. Trials are sorted by the cycle of
their first fault before they are batched, so a pass holds the faults of
one stretch of the run. A lane equals lane 0 until its first fault, so a
pass may start from lane 0's state at any cycle up to its earliest fault
(a :class:`~repro.designs.tinycore.harness.GoldenPoint`) instead of from
reset. Each worker process keeps the points its passes' lane 0 recorded:
a pass records the start of every later pass it runs through, and starts
from the latest point at or before its own start, or from reset when its
process holds none. Serially the first pass runs from reset and records
the start of every later pass, so a campaign makes no extra golden run.
Verdicts depend neither on where a pass starts, nor on batching, nor on
workers; they return to plan order by trial index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.designs.tinycore.core import TinycoreNetlist
from repro.designs.tinycore.harness import GateLevelRun, GoldenPoint, run_gate_level
from repro.rtlsim.simulator import Simulator
from repro.sfi.campaign import DUE, MASKED, SDC, UNKNOWN, batches
from repro.sfi.results import PassFailure
from repro.sfi.runtime import RunReport, RuntimeOptions, campaign_fingerprint, run_passes


@dataclass
class CampaignRuntime:
    """What the fault-tolerant runtime had to do to finish a campaign.

    The trials of a pass listed in ``failures`` are absent from the result.
    """

    elapsed_seconds: float = 0.0
    failures: list[PassFailure] = field(default_factory=list)
    pool_restarts: int = 0
    degraded: bool = False
    resumed_passes: int = 0

    def absorb(self, report: RunReport, started: float) -> None:
        """Take *report*'s bookkeeping; time the campaign from *started*."""
        self.failures = report.failures
        self.pool_restarts = report.pool_restarts
        self.degraded = report.degraded
        self.resumed_passes = report.resumed
        self.elapsed_seconds = time.perf_counter() - started


@dataclass(frozen=True)
class LanePass:
    """One simulator pass: fault lane *k* + 1 runs ``trials[k]``."""

    index: int                 # position in the campaign's pass list
    start: int | None          # cycle of its earliest fault; None: no faults
    ids: tuple[int, ...]       # each trial's index in plan order
    trials: tuple


def pass_start(first_cycles: Sequence[int | None]) -> int | None:
    """The cycle a pass starts at: the earliest first fault of its trials."""
    return min((c for c in first_cycles if c is not None), default=None)


def plan_passes(
    trials: Sequence,
    first_cycle: Callable[[Any], int | None],
    lanes_per_pass: int | None,
) -> list[LanePass]:
    """Sort *trials* by first fault cycle (trials without one last, plan
    order among ties) and batch them into passes."""
    firsts = [first_cycle(trial) for trial in trials]
    order = sorted(range(len(trials)),
                   key=lambda i: (firsts[i] is None, firsts[i] or 0))
    return [
        LanePass(index=k, start=pass_start([firsts[i] for i in ids]),
                 ids=tuple(ids), trials=tuple(trials[i] for i in ids))
        for k, ids in enumerate(batches(order, lanes_per_pass))
    ]


@dataclass
class LanePayload:
    """Everything a worker process needs to run passes on its own."""

    pass_fn: Callable[..., list]
    program: list[int]
    dmem_init: list[int] | None
    netlist: TinycoreNetlist
    max_cycles: int
    starts: tuple[int, ...] = ()  # every pass's start: the points to record
    extra: Any = None  # the campaign-specific setting its passes need


# Per-process worker state: the payload, one simulator per lane width and
# the golden points this process's passes recorded, by cycle.
_WORKER: tuple[LanePayload, dict[int, Simulator], dict[int, GoldenPoint]] | None = None


def _init_worker(payload: LanePayload) -> None:
    global _WORKER
    _WORKER = (payload, {}, {})


def _run_pass(lane_pass: LanePass) -> list:
    """``[cycles, stepped, verdicts]`` of one pass.

    *cycles* counts from reset to the pass's end, *stepped* only the
    cycles this pass simulated; *verdicts* holds one entry per trial.
    The campaign's ``pass_fn(payload, run, lane_pass)`` calls
    ``run(on_cycle, until=None)`` once to simulate.
    """
    assert _WORKER is not None, "worker used before initialization"
    payload, sims, points = _WORKER
    lanes = len(lane_pass.trials) + 1
    if lanes not in sims:
        sims[lanes] = Simulator(payload.netlist.module, lanes=lanes)
    held = [c for c in points if lane_pass.start is None or c <= lane_pass.start]
    start = points[max(held)] if held else None
    begin = start.state.cycle if start is not None else 0
    record = {c for c in payload.starts if c > begin and c not in points}
    runs: list[GateLevelRun] = []

    def run(on_cycle, until: int | None = None) -> GateLevelRun:
        if until is not None and record:
            until = max(until, *record)
        result = run_gate_level(
            payload.program, payload.dmem_init, netlist=payload.netlist,
            sim=sims[lanes], max_cycles=payload.max_cycles, on_cycle=on_cycle,
            start=start, record_at=record, until=until,
        )
        points.update(result.points)
        runs.append(result)
        return result

    verdicts = payload.pass_fn(payload, run, lane_pass)
    cycles = runs[-1].cycles
    return [cycles, cycles - begin, list(verdicts)]


@dataclass
class LaneResults:
    """A lane campaign's verdicts in plan order, plus its pass totals."""

    report: RunReport
    verdicts: list          # one per trial; None where its pass failed
    passes: int = 0         # passes that finished
    cycles: int = 0         # their cycles, each counted from reset
    stepped: int = 0        # the cycles they simulated


def run_lane_passes(
    kind: str,
    pass_fn: Callable[..., list],
    program: Sequence[int],
    dmem_init: Sequence[int] | None,
    netlist: TinycoreNetlist,
    trials: Sequence,
    first_cycle: Callable[[Any], int | None],
    fingerprint_parts: Sequence[object],
    *,
    lanes_per_pass: int | None,
    max_cycles: int,
    workers: int,
    runtime: RuntimeOptions | None,
    extra: Any = None,
) -> LaneResults:
    """Run every trial in a fault lane and return the verdicts in plan order.

    Trials are scheduled by :func:`plan_passes`; *first_cycle* gives a
    trial's first fault cycle. *pass_fn* must be module-level so pools
    pickle it by reference, and its verdicts JSON-able, since a
    checkpoint records them. The checkpoint fingerprint digests *kind*,
    the program, the dmem image, *fingerprint_parts* and each pass's
    trial indices, in that order.
    """
    passes = plan_passes(trials, first_cycle, lanes_per_pass)
    payload = LanePayload(
        pass_fn=pass_fn,
        program=list(program),
        dmem_init=list(dmem_init) if dmem_init is not None else None,
        netlist=netlist,
        max_cycles=max_cycles,
        starts=tuple(sorted({p.start for p in passes if p.start is not None})),
        extra=extra,
    )
    fingerprint = campaign_fingerprint(
        kind, payload.program, payload.dmem_init, *fingerprint_parts,
        [list(p.ids) for p in passes],
    )
    report = run_passes(
        _run_pass, _init_worker, payload, passes,
        workers=workers, options=runtime, fingerprint=fingerprint,
    )
    out = LaneResults(report=report, verdicts=[None] * len(trials))
    for lane_pass, result in zip(passes, report.results):
        if result is None:
            continue  # recorded in report.failures
        cycles, stepped, verdicts = result
        out.passes += 1
        out.cycles += cycles
        out.stepped += stepped
        for index, verdict in zip(lane_pass.ids, verdicts):
            out.verdicts[index] = verdict
    return out


def lane_verdicts(run: GateLevelRun, *, latent: bool = False) -> list[str]:
    """Classify every fault lane of a finished pass against lane 0.

    The rules, in order: DUE if the detector fired in the lane but not
    in lane 0; SDC if the outputs or the halt behaviour differ; UNKNOWN
    if the register file or data memory differs (with *latent*, any
    differing state: Eq 2's unknown term); otherwise MASKED. Entry *i*
    is lane *i* + 1's verdict.
    """
    golden_out = run.outputs[0]
    golden_halted = 0 in run.halted_lanes
    if latent:
        # Every flop and memory word is compared: a lane outside the
        # set holds lane 0's register file and data memory.
        state_differs = run.sim.lanes_differing_from(0).__contains__
    else:
        golden_state = run.architectural_state(0)[1:]

        def state_differs(lane: int) -> bool:
            return run.architectural_state(lane)[1:] != golden_state

    due_net = run.netlist.due
    due_bits = run.sim.peek(due_net) if due_net is not None else 0
    verdicts = []
    for lane in range(1, run.sim.lanes):
        if (due_bits >> lane) & 1 and not due_bits & 1:
            verdicts.append(DUE)
        elif (run.outputs[lane] != golden_out
              or (lane in run.halted_lanes) != golden_halted):
            verdicts.append(SDC)
        elif state_differs(lane):
            verdicts.append(UNKNOWN)
        else:
            verdicts.append(MASKED)
    return verdicts
