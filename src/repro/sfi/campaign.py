"""Fault-plan construction and outcome records."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import CampaignError
from repro.rtlsim.simulator import MAX_LANES

#: Fault lanes per simulator pass when a campaign does not choose: with
#: the golden lane a pass carries 64 lanes, one machine word.
DEFAULT_FAULT_LANES = 63

# Outcome classes.
MASKED = "masked"
SDC = "sdc"
UNKNOWN = "unknown"
DUE = "due"  # detected (parity fired): an error, but not silent


@dataclass(frozen=True)
class FaultPlan:
    """One planned injection: flip *net* just before the edge of *cycle*."""

    net: str
    cycle: int


@dataclass(frozen=True)
class InjectionOutcome:
    """Classified result of one injection."""

    plan: FaultPlan
    outcome: str  # MASKED / SDC / UNKNOWN / DUE

    @property
    def counts_as_error(self) -> bool:
        """Eq 2 numerator for the *SDC* AVF: silent errors + unknown.

        Detected errors (DUE) have their own AVF — the paper computes
        SDC and DUE AVFs separately because their observation points
        differ (Section 3.1).
        """
        return self.outcome in (SDC, UNKNOWN)

    @property
    def is_due(self) -> bool:
        return self.outcome == DUE


def plan_campaign(
    nets: Sequence[str],
    max_cycle: int,
    n_faults: int,
    seed: int = 1,
    *,
    per_node: bool = False,
) -> list[FaultPlan]:
    """Sample (node, cycle) injection points.

    ``per_node=False`` samples uniformly over the node x cycle space (the
    paper's whole-design campaign). ``per_node=True`` spreads ``n_faults``
    injections over *each* net at random cycles — the mode used to
    estimate per-node AVFs for the accuracy comparison.
    """
    if not nets:
        raise CampaignError("no nets to inject into")
    if max_cycle < 1:
        raise CampaignError("max_cycle must be >= 1")
    rng = random.Random(seed)
    plans: list[FaultPlan] = []
    if per_node:
        for net in nets:
            for _ in range(n_faults):
                plans.append(FaultPlan(net=net, cycle=rng.randrange(max_cycle)))
    else:
        for _ in range(n_faults):
            plans.append(
                FaultPlan(net=rng.choice(nets), cycle=rng.randrange(max_cycle))
            )
    return plans


def resolve_lanes_per_pass(lanes_per_pass: int | None) -> int:
    """Validate the campaign batch width.

    ``None`` resolves to :data:`DEFAULT_FAULT_LANES`. Raises
    :class:`CampaignError` on misuse: a non-positive width, or a width
    exceeding the simulator's per-pass cap (one golden lane rides along
    in every pass).
    """
    if lanes_per_pass is None:
        return DEFAULT_FAULT_LANES
    if lanes_per_pass < 1:
        raise CampaignError("need at least one fault lane per pass")
    if lanes_per_pass + 1 > MAX_LANES:
        raise CampaignError(
            f"lanes_per_pass={lanes_per_pass} exceeds the simulator's "
            f"per-pass cap of {MAX_LANES - 1} fault lanes "
            "(the golden lane occupies one slot); split into more passes"
        )
    return lanes_per_pass


def batches(
    plans: Iterable[FaultPlan],
    lanes_per_pass: int | None = DEFAULT_FAULT_LANES,
) -> list[list[FaultPlan]]:
    """Split plans into simulator passes (lane 0 stays golden).

    The batch width is validated by :func:`resolve_lanes_per_pass`;
    ``lanes_per_pass=None`` selects :data:`DEFAULT_FAULT_LANES`.
    """
    lanes_per_pass = resolve_lanes_per_pass(lanes_per_pass)
    plans = list(plans)
    return [
        plans[i:i + lanes_per_pass] for i in range(0, len(plans), lanes_per_pass)
    ]
