"""Mitigation selection: the paper's motivating application.

"A fast and accurate means of determining the most vulnerable sequentials
is required to determine the most efficient use of low-SER circuit and
other SER mitigation techniques for these bits." (Section 1)

Given per-node sequential AVFs, a hardening technique's residual factor
(e.g. a SEUT/BISER-style cell retains ~10 % of the intrinsic rate) and a
per-cell cost, :func:`select_cells` picks the cheapest set of flops that
meets a target SDC-FIT reduction — by descending AVF, which is optimal
when every flop has equal cost and intrinsic rate, and near-optimal
(greedy by benefit/cost) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.resolve import NodeAvf, ROLE_STRUCT
from repro.core.sart import SartResult
from repro.errors import ReproError
from repro.netlist.graph import NodeKind


@dataclass(frozen=True)
class HardeningOption:
    """One mitigation technique applicable to a flop."""

    name: str
    residual: float      # fraction of intrinsic rate remaining (0..1)
    area_cost: float = 1.0  # relative cost per hardened cell

    def __post_init__(self) -> None:
        if not 0.0 <= self.residual < 1.0:
            raise ReproError(f"{self.name}: residual must be in [0, 1)")
        if self.area_cost <= 0:
            raise ReproError(f"{self.name}: cost must be positive")


# Representative options from the paper's citation list.
SEUT = HardeningOption("SEUT", residual=0.10, area_cost=1.6)
BISER = HardeningOption("BISER", residual=0.05, area_cost=2.0)
LOW_SER = HardeningOption("LowSER", residual=0.30, area_cost=1.15)


@dataclass
class MitigationPlan:
    """Outcome of a selection run."""

    option: HardeningOption
    selected: list[NodeAvf] = field(default_factory=list)
    base_fit: float = 0.0        # Σ AVF over all candidate flops (x intrinsic)
    achieved_fit: float = 0.0
    target_fit: float = 0.0
    total_cost: float = 0.0

    @property
    def reduction(self) -> float:
        return 1.0 - self.achieved_fit / self.base_fit if self.base_fit else 0.0

    @property
    def met_target(self) -> bool:
        return self.achieved_fit <= self.target_fit + 1e-12


def candidate_flops(result: SartResult) -> list[NodeAvf]:
    """Sequential logic nodes eligible for cell hardening.

    Structure storage bits are excluded — arrays are protected with
    parity/ECC, not hardened cells (paper Section 1).
    """
    return [
        node for node in result.node_avfs.values()
        if node.kind == NodeKind.SEQ and node.role != ROLE_STRUCT
    ]


def select_cells(
    result: SartResult,
    *,
    target_reduction: float,
    option: HardeningOption = SEUT,
) -> MitigationPlan:
    """Greedy selection meeting *target_reduction* of sequential SDC FIT.

    Raises :class:`ReproError` when the target is infeasible (even
    hardening every flop cannot reach it).
    """
    if not 0.0 < target_reduction < 1.0:
        raise ReproError("target_reduction must be in (0, 1)")
    flops = candidate_flops(result)
    base = sum(n.avf for n in flops)
    plan = MitigationPlan(
        option=option,
        base_fit=base,
        achieved_fit=base,
        target_fit=base * (1.0 - target_reduction),
    )
    if base <= 0:
        return plan

    saving_per_cell = 1.0 - option.residual
    # Equal cost/intrinsic per flop: descending AVF is the exact greedy order.
    for node in sorted(flops, key=lambda n: -n.avf):
        if plan.achieved_fit <= plan.target_fit:
            break
        plan.selected.append(node)
        plan.achieved_fit -= node.avf * saving_per_cell
        plan.total_cost += option.area_cost
    if not plan.met_target:
        raise ReproError(
            f"target {target_reduction:.0%} unreachable with {option.name} "
            f"(best achievable {1 - plan.achieved_fit / base:.0%})"
        )
    return plan


def compare_selections(
    result: SartResult,
    flat_avf: float,
    *,
    target_reduction: float,
    option: HardeningOption = SEUT,
) -> tuple[MitigationPlan, int]:
    """Cells needed using SART's per-node AVFs vs a flat proxy AVF.

    With a flat AVF every flop looks identical, so the proxy plan must
    harden cells blindly until the target falls; the return value is
    ``(sart_plan, proxy_cell_count)``, quantifying the paper's "most
    efficient use" claim.
    """
    plan = select_cells(result, target_reduction=target_reduction, option=option)
    flops = candidate_flops(result)
    # Under the flat proxy, each hardened cell saves the same amount:
    # reaching the target needs ceil(target / per-cell saving) cells.
    saving = 1.0 - option.residual
    needed = 0
    remaining = target_reduction * len(flops) * flat_avf
    per_cell = flat_avf * saving
    if per_cell > 0:
        needed = int(-(-remaining // per_cell))
    return plan, min(needed, len(flops))
