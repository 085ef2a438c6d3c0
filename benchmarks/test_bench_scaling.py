"""Ablation — SART cost scaling with design size.

The paper reports about a day of SART runtime for a full Xeon core
(millions of nodes) and ~20 relaxation iterations. This bench measures
how our implementation's wall time grows with bigcore scale, pinning the
near-linear behaviour that makes the technique viable at core scale.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.core.sart import run_sart
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports

SCALES = (0.25, 0.5, 1.0, 2.0)


def test_bench_scaling(benchmark, model_ports):
    ports, _ = model_ports

    def sweep():
        rows = []
        for scale in SCALES:
            design = build_bigcore(BigcoreConfig(scale=scale, seed=42))
            mapped = map_structure_ports(design, ports)
            started = time.perf_counter()
            result = run_sart(design.module, mapped)
            elapsed = time.perf_counter() - started
            rows.append((scale, len(design.module.instances),
                         int(result.stats["sequentials"]), elapsed,
                         result.report.weighted_seq_avf))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "SART wall time vs design scale (default solve)",
        ["scale", "instances", "sequentials", "seconds", "avg seq AVF"],
        [list(r) for r in rows],
    )
    nodes = [r[1] for r in rows]
    seconds = [r[3] for r in rows]
    throughputs = [n / s for n, s in zip(nodes, seconds)]
    print(f"throughput {min(throughputs):,.0f}-{max(throughputs):,.0f} instances/s "
          f"across a {nodes[-1] / nodes[0]:.0f}x size range")

    # Near-linear: time per node must not blow up across the size range.
    per_node = [s / n for n, s in zip(nodes, seconds)]
    assert max(per_node) < min(per_node) * 5
    # The headline statistic is size-stable (the design generator keeps
    # its statistical character as it scales).
    avfs = [r[4] for r in rows]
    assert max(avfs) - min(avfs) < 0.08
