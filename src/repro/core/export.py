"""Result export: CSV/JSON writers for downstream consumption.

A real deployment feeds sequential AVFs into FIT rollups, hardened-cell
selection, and design reviews; these writers emit the SART outputs in
formats those flows ingest: per-node CSV, per-FUB CSV, a JSON summary,
and the closed-form equations as text.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping

from repro.core.resolve import NodeAvf
from repro.core.sart import SartResult


def node_avfs_csv(result: SartResult) -> str:
    """Per-node AVF table: net, instance, fub, kind, role, fwd, bwd, avf."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["net", "instance", "fub", "kind", "role",
                     "forward", "backward", "avf", "visited"])
    graph = result.plan.graph
    for net, node in sorted(result.node_avfs.items()):
        inst = graph.inst(graph.ids[net]) or ""
        writer.writerow([
            net, inst, node.fub, node.kind, node.role,
            f"{node.forward:.6f}", f"{node.backward:.6f}",
            f"{node.avf:.6f}", int(node.visited),
        ])
    return out.getvalue()


def fub_report_csv(result: SartResult) -> str:
    """Per-FUB aggregate table (the Figure 9 rows)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["fub", "seq_count", "seq_avg_avf", "node_count", "node_avg_avf"])
    for row in result.report.fubs:
        writer.writerow([row.fub, row.seq_count, f"{row.seq_avg_avf:.6f}",
                         row.node_count, f"{row.node_avg_avf:.6f}"])
    writer.writerow(["WEIGHTED", result.report.seq_count,
                     f"{result.report.weighted_seq_avf:.6f}",
                     result.report.node_count,
                     f"{result.report.weighted_node_avf:.6f}"])
    return out.getvalue()


def summary_json(result: SartResult) -> str:
    """Machine-readable run summary (stats + headline numbers)."""
    payload = {
        "design": result.plan.graph.name,
        "weighted_seq_avf": result.report.weighted_seq_avf,
        "weighted_node_avf": result.report.weighted_node_avf,
        "seq_count": result.report.seq_count,
        "node_count": result.report.node_count,
        "visited_fraction": result.report.visited_fraction,
        "loop_bits": result.report.loop_bits,
        "ctrl_bits": result.report.ctrl_bits,
        "elapsed_seconds": result.elapsed_seconds,
        "config": {
            "loop_pavf": result.config.loop_pavf,
        },
        "fubs": [
            {
                "fub": row.fub,
                "seq_count": row.seq_count,
                "seq_avg_avf": row.seq_avg_avf,
                "node_count": row.node_count,
                "node_avg_avf": row.node_avg_avf,
            }
            for row in result.report.fubs
        ],
    }
    if result.trace is not None:
        payload["relaxation"] = {
            "iterations": result.trace.iterations,
            "converged": result.trace.converged,
            "max_delta": result.trace.max_delta,
        }
    return json.dumps(payload, indent=2, sort_keys=True)


def closed_form_text(result: SartResult, nets: Iterable[str] | None = None) -> str:
    """The per-node closed-form equations (Section 5.2) as plain text."""
    closed = result.closed_form()
    selected = list(nets) if nets is not None else sorted(
        net for net, node in result.node_avfs.items() if node.kind == "seq"
    )
    lines = [closed.equation_for(net) for net in selected]
    return "\n".join(lines) + "\n"


def worst_nodes(result: SartResult, count: int = 20) -> list[NodeAvf]:
    """The highest-AVF sequential nodes — the hardened-cell shopping list.

    This is the paper's stated purpose: "A fast and accurate means of
    determining the most vulnerable sequentials is required to determine
    the most efficient use of low-SER circuit and other SER mitigation
    techniques."
    """
    pool = [
        node for node in result.node_avfs.values()
        if node.kind == "seq" and node.role != "struct"
    ]
    pool.sort(key=lambda n: (-n.avf, n.net))
    return pool[:count]
