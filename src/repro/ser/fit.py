"""Eq 1: SER FIT = AVF_bit x #bits x intrinsic error rate.

The :class:`FitModel` accumulates components (a component being any set
of bits sharing an AVF — a node, a structure, or a whole group) and
reports SDC FIT by group and in normalized arbitrary units (the paper
normalizes "due to the sensitive nature of the actual FIT values").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


@dataclass
class GroupFit:
    """Accumulated FIT of one component group (e.g. 'sequentials')."""

    group: str
    bits: int = 0
    fit: float = 0.0

    def average_avf(self, intrinsic: float) -> float:
        denom = self.bits * intrinsic
        return self.fit / denom if denom else 0.0


@dataclass
class FitModel:
    """Eq 1 accumulator.

    ``intrinsic_fit_per_bit`` is the per-bit raw rate (process dependent;
    any positive constant works since results are reported normalized).
    """

    intrinsic_fit_per_bit: float = 1.0e-3
    groups: dict[str, GroupFit] = field(default_factory=dict)

    def add(self, group: str, avf: float, bits: int = 1, derating: float = 1.0) -> None:
        """Add a component: FIT += avf x bits x intrinsic x derating."""
        if not 0.0 <= avf <= 1.0:
            raise ReproError(f"AVF out of range: {avf}")
        if bits < 0:
            raise ReproError("negative bit count")
        entry = self.groups.setdefault(group, GroupFit(group=group))
        entry.bits += bits
        entry.fit += avf * bits * self.intrinsic_fit_per_bit * derating

    def total_fit(self) -> float:
        return sum(g.fit for g in self.groups.values())

    def group_fit(self, group: str) -> float:
        return self.groups[group].fit if group in self.groups else 0.0

    def total_bits(self) -> int:
        return sum(g.bits for g in self.groups.values())

    def normalized(self, reference: float | None = None) -> dict[str, float]:
        """FIT per group in arbitrary units (reference defaults to total)."""
        ref = reference if reference is not None else self.total_fit()
        if ref <= 0:
            return {g: 0.0 for g in self.groups}
        out = {g: entry.fit / ref for g, entry in self.groups.items()}
        out["TOTAL"] = self.total_fit() / ref
        return out


def sdc_rate_per_cycle(model: FitModel) -> float:
    """Expected SDC events per simulated cycle.

    Under the beam substitution, a strike hits a given bit with
    probability ``intrinsic_fit_per_bit`` per cycle (the flux is part of
    that rate) and upsets the program with probability AVF, so the
    expected event rate is simply the accumulated FIT. This is the
    quantity the measured beam rate is correlated against.
    """
    return model.total_fit()
