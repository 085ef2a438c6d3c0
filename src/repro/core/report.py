"""Per-FUB reporting (the data behind Figure 9 and the Section 6.1 stats).

The paper plots, for each RTL module (FUB), the average sequential AVF and
the average node AVF after the final relaxation iteration, plus overall
averages weighted by the number of sequentials in each FUB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.resolve import NodeAvf, ROLE_STRUCT
from repro.netlist.graph import NodeKind


@dataclass(frozen=True)
class FubReport:
    """Aggregate AVF of one FUB."""

    fub: str
    seq_count: int
    seq_avg_avf: float
    node_count: int
    node_avg_avf: float


@dataclass(frozen=True)
class DesignReport:
    """Whole-design aggregates (weighted as in the paper)."""

    fubs: tuple[FubReport, ...]
    seq_count: int
    weighted_seq_avf: float     # headline: the paper reports 14 %
    node_count: int
    weighted_node_avf: float
    visited_fraction: float     # paper: "visited more than 98 % of all RTL nodes"
    loop_bits: int
    ctrl_bits: int

    def table(self) -> str:
        """Render the Figure 9 rows as a fixed-width text table."""
        lines = [
            f"{'FUB':<16}{'#seq':>8}{'seq AVF':>10}{'#node':>8}{'node AVF':>10}",
        ]
        for row in self.fubs:
            lines.append(
                f"{row.fub or '(top)':<16}{row.seq_count:>8}"
                f"{row.seq_avg_avf:>10.4f}{row.node_count:>8}{row.node_avg_avf:>10.4f}"
            )
        lines.append(
            f"{'WEIGHTED AVG':<16}{self.seq_count:>8}{self.weighted_seq_avf:>10.4f}"
            f"{self.node_count:>8}{self.weighted_node_avf:>10.4f}"
        )
        return "\n".join(lines)


def fub_report(
    node_avfs: Mapping[str, NodeAvf],
    *,
    loop_bits: int = 0,
    ctrl_bits: int = 0,
) -> DesignReport:
    """Aggregate resolved node AVFs by FUB.

    Structure storage bits are excluded from the *sequential* average —
    their AVF comes from the ACE model, and the paper's sequential-AVF
    number covers the miscellaneous sequentials, not the ACE-analyzed
    arrays. They are also excluded from the node average for the same
    reason.
    """
    per_fub: dict[str, list[NodeAvf]] = {}
    for node in node_avfs.values():
        if node.kind in (NodeKind.INPUT, NodeKind.CONST):
            continue
        if node.role == ROLE_STRUCT or node.kind == NodeKind.MEM_RDATA:
            continue
        per_fub.setdefault(node.fub, []).append(node)

    rows: list[FubReport] = []
    seq_total = 0
    seq_weighted = 0.0
    node_total = 0
    node_weighted = 0.0
    for fub in sorted(per_fub):
        nodes = per_fub[fub]
        seqs = [n for n in nodes if n.kind == NodeKind.SEQ]
        seq_avg = sum(n.avf for n in seqs) / len(seqs) if seqs else 0.0
        node_avg = sum(n.avf for n in nodes) / len(nodes) if nodes else 0.0
        rows.append(
            FubReport(
                fub=fub,
                seq_count=len(seqs),
                seq_avg_avf=seq_avg,
                node_count=len(nodes),
                node_avg_avf=node_avg,
            )
        )
        seq_total += len(seqs)
        seq_weighted += sum(n.avf for n in seqs)
        node_total += len(nodes)
        node_weighted += sum(n.avf for n in nodes)

    all_nodes = [
        n for n in node_avfs.values() if n.kind not in (NodeKind.INPUT, NodeKind.CONST)
    ]
    visited = sum(1 for n in all_nodes if n.visited)
    return DesignReport(
        fubs=tuple(rows),
        seq_count=seq_total,
        weighted_seq_avf=(seq_weighted / seq_total) if seq_total else 0.0,
        node_count=node_total,
        weighted_node_avf=(node_weighted / node_total) if node_total else 0.0,
        visited_fraction=(visited / len(all_nodes)) if all_nodes else 1.0,
        loop_bits=loop_bits,
        ctrl_bits=ctrl_bits,
    )


def average_seq_avf(node_avfs: Mapping[str, NodeAvf], nets: Iterable[str] | None = None) -> float:
    """Mean AVF over sequential logic nodes (optionally restricted)."""
    pool = (
        [node_avfs[n] for n in nets if n in node_avfs]
        if nets is not None
        else list(node_avfs.values())
    )
    seqs = [n for n in pool if n.kind == NodeKind.SEQ and n.role != ROLE_STRUCT]
    return sum(n.avf for n in seqs) / len(seqs) if seqs else 0.0
