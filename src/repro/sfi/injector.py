"""SFI campaign execution on tinycore.

One simulator pass carries the golden lane plus a configurable number of
fault lanes (63 by default); each fault lane gets its planned bit flip
at its planned cycle. After lane 0 halts, every fault lane is
classified against the golden lane.

Passes are independent, so campaigns fan out across worker processes
through :func:`repro.sfi.lanes.run_lane_passes`, and every lane gets the
shared :func:`repro.sfi.lanes.lane_verdicts` rule. Results are
reassembled in plan order, so a fixed seed gives identical outcomes at
any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.designs.tinycore.core import TinycoreNetlist, build_tinycore
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
from repro.sfi.lanes import CampaignRuntime, LanePayload, lane_verdicts, run_lane_passes
from repro.sfi.runtime import RuntimeOptions


@dataclass
class CampaignResult(CampaignRuntime):
    """All outcomes of one SFI campaign plus bookkeeping.

    The planned injections of a pass that failed permanently (see
    :class:`~repro.sfi.lanes.CampaignRuntime`) are simply absent from
    ``outcomes``.
    """

    outcomes: list[InjectionOutcome] = field(default_factory=list)
    passes: int = 0
    simulated_cycles: int = 0
    workers: int = 1

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


def _run_sfi_pass(
    payload: LanePayload, sim: Simulator, batch: Sequence[FaultPlan]
) -> tuple[list[InjectionOutcome], int]:
    """Execute one simulator pass and classify its injections."""
    by_cycle: dict[int, list[tuple[str, int]]] = {}
    for lane_offset, plan in enumerate(batch):
        by_cycle.setdefault(plan.cycle, []).append((plan.net, 1 << (lane_offset + 1)))

    def inject(simulator: Simulator, cycle: int) -> None:
        for net, lane_mask in by_cycle.get(cycle, ()):
            simulator.flip(net, lane_mask)

    run = payload.run(sim, inject)
    verdicts = lane_verdicts(run, latent=True)
    return [
        InjectionOutcome(plan=plan, outcome=verdict)
        for plan, verdict in zip(batch, verdicts)
    ], run.cycles


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

    report = run_lane_passes(
        "sfi", _run_sfi_pass, program, dmem_init, netlist,
        batches(plans, lanes_per_pass),
        (max_cycles, [(p.net, p.cycle) for p in plans]),
        max_cycles=max_cycles, workers=workers, runtime=runtime,
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
    result.absorb(report, started)
    return result

