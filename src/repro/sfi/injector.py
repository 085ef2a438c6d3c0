"""SFI campaign execution on tinycore.

One simulator pass carries the golden lane plus a configurable number of
fault lanes (63 by default); each fault lane gets its planned bit flip
at its planned cycle. After lane 0 halts, every fault lane is
classified against the golden lane.

Passes are independent, so campaigns fan out across worker processes:
each worker compiles its own simulator once and streams classified
:class:`InjectionOutcome` batches back. Results are reassembled in plan
order, so a fixed seed gives identical outcomes at any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.designs.tinycore.core import TinycoreNetlist, build_tinycore
from repro.designs.tinycore.harness import GateLevelRun, run_gate_level
from repro.errors import CampaignError
from repro.rtlsim.simulator import Simulator
from repro.sfi.campaign import (
    DEFAULT_FAULT_LANES,
    DUE,
    MASKED,
    SDC,
    UNKNOWN,
    FaultPlan,
    InjectionOutcome,
    batches,
)
from repro.sfi.results import PassFailure
from repro.sfi.runtime import RuntimeOptions, campaign_fingerprint, run_passes


@dataclass
class CampaignResult:
    """All outcomes of one SFI campaign plus bookkeeping.

    ``failures`` holds structured records for passes that failed
    permanently (crash after the retry budget, or soft timeout); their
    planned injections are simply absent from ``outcomes``. ``resumed
    _passes``/``pool_restarts``/``degraded`` report what the
    fault-tolerant runtime had to do to finish the campaign.
    """

    outcomes: list[InjectionOutcome] = field(default_factory=list)
    passes: int = 0
    simulated_cycles: int = 0
    elapsed_seconds: float = 0.0
    workers: int = 1
    failures: list[PassFailure] = field(default_factory=list)
    pool_restarts: int = 0
    degraded: bool = False
    resumed_passes: int = 0

    def counts(self) -> dict[str, int]:
        out = {MASKED: 0, SDC: 0, UNKNOWN: 0, DUE: 0}
        for o in self.outcomes:
            out[o.outcome] += 1
        return out

    def due_avf(self) -> float:
        """Detected-error AVF (observation point: the detection logic)."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.is_due) / len(self.outcomes)

    def avf(self) -> float:
        """Eq 2: (errors + unknown) / injected."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.counts_as_error) / len(self.outcomes)

    def to_summary(self) -> dict:
        """Machine-readable campaign summary (shared result-emission layer)."""
        from repro.sfi.results import overall_avf

        avf, (lo, hi) = overall_avf(self.outcomes)
        return {
            "kind": "sfi",
            "injections": len(self.outcomes),
            "counts": self.counts(),
            "sdc_avf": avf,
            "sdc_avf_interval": [lo, hi],
            "due_avf": self.due_avf(),
            "passes": self.passes,
            "simulated_cycles": self.simulated_cycles,
            "elapsed_seconds": self.elapsed_seconds,
            # A constant, kept so summary documents and the digests
            # taken over them stay byte-identical.
            "backend": "python",
            "workers": self.workers,
            "failed_passes": len(self.failures),
            "pool_restarts": self.pool_restarts,
            "degraded": self.degraded,
            "resumed_passes": self.resumed_passes,
        }


@dataclass
class _SfiPayload:
    """Everything a worker process needs to run passes on its own."""

    program: list[int]
    dmem_init: list[int] | None
    netlist: TinycoreNetlist
    max_cycles: int


class _SfiContext:
    """Per-process simulator cache (one compile per lane count)."""

    def __init__(self, payload: _SfiPayload):
        self.payload = payload
        self._sims: dict[int, Simulator] = {}

    def sim_for(self, lanes: int) -> Simulator:
        sim = self._sims.get(lanes)
        if sim is None:
            sim = Simulator(self.payload.netlist.module, lanes=lanes)
            self._sims[lanes] = sim
        return sim


_SFI_CTX: _SfiContext | None = None


def _init_sfi_worker(payload: _SfiPayload) -> None:
    global _SFI_CTX
    _SFI_CTX = _SfiContext(payload)


def _run_sfi_batch(batch: Sequence[FaultPlan]) -> tuple[list[InjectionOutcome], int]:
    """Execute one simulator pass and classify its injections."""
    ctx = _SFI_CTX
    assert ctx is not None, "worker used before initialization"
    payload = ctx.payload
    sim = ctx.sim_for(len(batch) + 1)
    by_cycle: dict[int, list[tuple[str, int]]] = {}
    for lane_offset, plan in enumerate(batch):
        by_cycle.setdefault(plan.cycle, []).append((plan.net, 1 << (lane_offset + 1)))

    def inject(simulator: Simulator, cycle: int) -> None:
        for net, lane_mask in by_cycle.get(cycle, ()):
            simulator.flip(net, lane_mask)

    run = run_gate_level(
        payload.program, payload.dmem_init, max_cycles=payload.max_cycles,
        netlist=payload.netlist, sim=sim, on_cycle=inject,
    )
    return _classify_batch(run, batch), run.cycles


def _encode_sfi_pass(result: tuple[list[InjectionOutcome], int]) -> list:
    """One pass result -> JSON-able checkpoint payload."""
    outcomes, cycles = result
    return [cycles, [[o.plan.net, o.plan.cycle, o.outcome] for o in outcomes]]


def _decode_sfi_pass(payload: list) -> tuple[list[InjectionOutcome], int]:
    cycles, rows = payload
    return (
        [
            InjectionOutcome(plan=FaultPlan(net=net, cycle=cycle), outcome=outcome)
            for net, cycle, outcome in rows
        ],
        cycles,
    )


def run_sfi_campaign(
    program: list[int],
    dmem_init: list[int] | None,
    plans: Sequence[FaultPlan],
    *,
    max_cycles: int = 100_000,
    lanes_per_pass: int | None = DEFAULT_FAULT_LANES,
    netlist: TinycoreNetlist | None = None,
    workers: int = 1,
    runtime: RuntimeOptions | None = None,
) -> CampaignResult:
    """Execute every planned injection and classify the outcomes.

    *lanes_per_pass* fault lanes share each simulator pass (``None``
    selects :data:`~repro.sfi.campaign.DEFAULT_FAULT_LANES`). *workers*
    > 1 fans passes out across processes; outcomes are identical to the
    serial run for a fixed plan list because every pass is independent
    and results are reassembled in plan order.

    *runtime* configures the fault-tolerant execution layer: durable
    checkpointing with resume, bounded per-pass retry, pool respawn with
    serial degradation, and soft pass timeouts (docs/ROBUSTNESS.md). A
    resumed campaign reproduces the uninterrupted campaign's outcomes
    bit for bit, because the checkpoint keys on a fingerprint of the
    program, plan list, and batching.
    """
    started = time.perf_counter()
    if netlist is None:
        netlist = build_tinycore(program, dmem_init)
    known = netlist.module.nets
    for plan in plans:
        if plan.net not in known:
            raise CampaignError(f"fault plan targets unknown net {plan.net!r}")

    plan_batches = batches(plans, lanes_per_pass)
    payload = _SfiPayload(
        program=list(program),
        dmem_init=list(dmem_init) if dmem_init is not None else None,
        netlist=netlist,
        max_cycles=max_cycles,
    )
    fingerprint = campaign_fingerprint(
        "sfi", payload.program, payload.dmem_init, max_cycles,
        [(p.net, p.cycle) for p in plans], [len(b) for b in plan_batches],
    )
    report = run_passes(
        _run_sfi_batch, _init_sfi_worker, payload, plan_batches,
        workers=workers, options=runtime, fingerprint=fingerprint,
        encode=_encode_sfi_pass, decode=_decode_sfi_pass,
    )
    result = CampaignResult(workers=max(1, workers))
    for pass_result in report.results:
        if pass_result is None:
            continue  # recorded in result.failures
        outcomes, cycles = pass_result
        result.passes += 1
        result.simulated_cycles += cycles
        result.outcomes.extend(outcomes)
    result.failures = report.failures
    result.pool_restarts = report.pool_restarts
    result.degraded = report.degraded
    result.resumed_passes = report.resumed
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _classify_batch(run: GateLevelRun, batch: Sequence[FaultPlan]) -> list[InjectionOutcome]:
    golden_arch = run.architectural_state(0)
    latent_lanes = run.sim.lanes_differing_from(0)
    due_net = run.netlist.due
    due_bits = run.sim.peek(due_net) if due_net is not None else 0
    outcomes = []
    for lane_offset, plan in enumerate(batch):
        lane = lane_offset + 1
        arch = run.architectural_state(lane)
        halted_matches = (lane in run.halted_lanes) == (0 in run.halted_lanes)
        if due_net is not None and (due_bits >> lane) & 1 and not (due_bits & 1):
            # Detection fired in this replica (and not in the golden run):
            # the machine signals the error — detected, not silent.
            outcome = DUE
        elif arch[0] != golden_arch[0] or not halted_matches:
            outcome = SDC  # visible at the program outputs
        elif arch[1:] != golden_arch[1:]:
            outcome = UNKNOWN  # architectural state still corrupted
        elif lane in latent_lanes:
            outcome = UNKNOWN  # microarchitectural state still corrupted
        else:
            outcome = MASKED
        outcomes.append(InjectionOutcome(plan=plan, outcome=outcome))
    return outcomes
