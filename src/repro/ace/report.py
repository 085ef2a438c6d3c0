"""Per-structure ACE reporting (the performance-model side's tables).

Renders structure AVFs and port AVFs — per workload and suite-aggregated
— the way AVF teams review them: one row per structure with the Eq 3
AVF, the port rates, occupancy, and the Little's-law decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.perfmodel.machine import PerfResult


@dataclass(frozen=True)
class StructureRow:
    """One structure's summary across a set of runs."""

    name: str
    entries: int
    bits: int
    avf: float
    pavf_r: float
    pavf_w: float
    mean_occupancy: float
    mean_ace_latency: float

    @property
    def latency_dominated(self) -> bool:
        """Paper Section 4: arrays are latency-dominated when the
        residency term (structure AVF) exceeds the throughput term."""
        return self.avf > self.pavf_r


def structure_rows(results: Iterable[PerfResult]) -> list[StructureRow]:
    """Suite-averaged rows, one per structure."""
    results = list(results)
    if not results:
        return []
    names = sorted(results[0].structures)
    rows = []
    for name in names:
        stats = [r.structures[name] for r in results]
        first = stats[0]
        n = len(stats)
        rows.append(
            StructureRow(
                name=name,
                entries=first.entries,
                bits=first.entries * first.bits_per_entry,
                avf=sum(s.avf() for s in stats) / n,
                pavf_r=sum(s.pavf_r_bitwise() for s in stats) / n,
                pavf_w=sum(s.pavf_w_bitwise() for s in stats) / n,
                mean_occupancy=sum(r.occupancy.get(name, 0.0) for r in results) / n,
                mean_ace_latency=sum(
                    r.lifetimes[name].mean_ace_latency() for r in results
                ) / n,
            )
        )
    return rows


def structure_table(results: Iterable[PerfResult]) -> str:
    """Fixed-width text table of the suite-averaged structure report."""
    rows = structure_rows(results)
    lines = [
        f"{'structure':<14}{'entries':>8}{'bits':>8}{'AVF':>8}"
        f"{'pAVF_R':>8}{'pAVF_W':>8}{'occ':>8}{'latency':>9}{'regime':>12}"
    ]
    for row in rows:
        regime = "latency" if row.latency_dominated else "throughput"
        lines.append(
            f"{row.name:<14}{row.entries:>8}{row.bits:>8}{row.avf:>8.3f}"
            f"{row.pavf_r:>8.3f}{row.pavf_w:>8.3f}{row.mean_occupancy:>8.1f}"
            f"{row.mean_ace_latency:>9.1f}{regime:>12}"
        )
    return "\n".join(lines)
