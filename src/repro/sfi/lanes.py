"""One pass runner for lane-packed tinycore campaigns.

SFI (:mod:`repro.sfi.injector`), the simulated beam test
(:mod:`repro.ser.beam`) and the Monte-Carlo masking estimator
(:mod:`repro.ser.derating`) are one kind of campaign: lane 0 of every
simulator pass is golden, each planned trial owns one fault lane, and
passes run on the fault-tolerant runtime (:mod:`repro.sfi.runtime`).
Each campaign keeps only its plan, its per-pass function and the fold of
pass results into its result; the worker payload, the per-process
simulator cache, the runtime bookkeeping and the lane verdict live here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.designs.tinycore.core import TinycoreNetlist
from repro.designs.tinycore.harness import GateLevelRun, run_gate_level
from repro.rtlsim.simulator import Simulator
from repro.sfi.campaign import DUE, MASKED, SDC, UNKNOWN
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


@dataclass
class LanePayload:
    """Everything a worker process needs to run passes on its own."""

    pass_fn: Callable[[LanePayload, Simulator, Sequence], Any]
    program: list[int]
    dmem_init: list[int] | None
    netlist: TinycoreNetlist
    max_cycles: int
    extra: Any = None  # the campaign-specific setting its passes need

    def run(self, sim: Simulator, on_cycle) -> GateLevelRun:
        """Run the program once on *sim*, calling *on_cycle* every cycle."""
        return run_gate_level(
            self.program, self.dmem_init, netlist=self.netlist, sim=sim,
            max_cycles=self.max_cycles, on_cycle=on_cycle,
        )


# Per-process worker state: the payload plus one simulator per lane width.
_WORKER: tuple[LanePayload, dict[int, Simulator]] | None = None


def _init_worker(payload: LanePayload) -> None:
    global _WORKER
    _WORKER = (payload, {})


def _run_pass(group: Sequence) -> Any:
    assert _WORKER is not None, "worker used before initialization"
    payload, sims = _WORKER
    lanes = len(group) + 1
    if lanes not in sims:
        sims[lanes] = Simulator(payload.netlist.module, lanes=lanes)
    return payload.pass_fn(payload, sims[lanes], group)


def run_lane_passes(
    kind: str,
    pass_fn: Callable[[LanePayload, Simulator, Sequence], Any],
    program: Sequence[int],
    dmem_init: Sequence[int] | None,
    netlist: TinycoreNetlist,
    groups: Sequence[Sequence],
    fingerprint_parts: Sequence[object],
    *,
    max_cycles: int,
    workers: int,
    runtime: RuntimeOptions | None,
    extra: Any = None,
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
) -> RunReport:
    """Run ``pass_fn(payload, sim, group)`` once per group of trials.

    *pass_fn* must be module-level so pools pickle it by reference. The
    checkpoint fingerprint digests *kind*, the program, the dmem image,
    *fingerprint_parts* and the group sizes, in that order.
    *encode*/*decode* map a pass result to and from its checkpoint record.
    """
    payload = LanePayload(
        pass_fn=pass_fn,
        program=list(program),
        dmem_init=list(dmem_init) if dmem_init is not None else None,
        netlist=netlist,
        max_cycles=max_cycles,
        extra=extra,
    )
    fingerprint = campaign_fingerprint(
        kind, payload.program, payload.dmem_init, *fingerprint_parts,
        [len(group) for group in groups],
    )
    return run_passes(
        _run_pass, _init_worker, payload, groups,
        workers=workers, options=runtime, fingerprint=fingerprint,
        encode=encode, decode=decode,
    )


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
        # Every flop and memory overlay is compared: a lane outside the
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
