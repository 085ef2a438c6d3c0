"""E2 — Figure 8: average sequential AVF vs loop-boundary pAVF.

The paper sweeps the static pAVF injected at loop boundaries and finds:
"a 100% pAVF applied to every loop boundary node did not cause the
sequential AVFs to saturate, nor was the effect linear. Lower points
showed a modest decrease but there appears to be a heel in the curve
around 30%."

We reproduce the sweep on bigcore (whose loop fraction matches the
paper's 2-3 % regime) and check the three claims: no saturation,
non-linearity (concavity), and a modest total variation — plus report
where the curvature knee falls.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.sart import SartConfig, build_plan, run_sart

SWEEP = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def test_bench_fig8_loop_sweep(benchmark, bigcore_design, bigcore_ports):
    # One SolvePlan for the whole sweep: the graph is lowered and solved
    # once; each point only re-binds the loop-boundary atom values.
    plan = build_plan(bigcore_design.module, bigcore_ports)

    def sweep():
        points = []
        for value in SWEEP:
            config = SartConfig(loop_pavf=value, partition_by_fub=False)
            result = run_sart(plan=plan, config=config)
            points.append((value, result.report.weighted_seq_avf))
        return points

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    avfs = [a for _, a in points]
    slopes = [avfs[i + 1] - avfs[i] for i in range(len(avfs) - 1)]

    rows = [[v, a] for v, a in points]
    print_table("Figure 8 — avg sequential AVF vs loop-boundary pAVF",
                ["loop pAVF", "avg seq AVF"], rows)
    # Knee: largest drop in slope.
    curvature = [slopes[i] - slopes[i + 1] for i in range(len(slopes) - 1)]
    knee = SWEEP[curvature.index(max(curvature)) + 1]
    print(f"paper: heel ~0.30, no saturation at 1.0 | measured knee ~{knee:.2f}, "
          f"AVF(1.0)={avfs[-1]:.3f}")

    # Claim 1: no saturation — loop pAVF 1.0 leaves the average far below 100%.
    assert avfs[-1] < 0.5
    # Claim 2: monotone but NOT linear: slope decreases (concave).
    assert all(s >= -1e-9 for s in slopes)
    assert slopes[-1] < slopes[0] * 0.8
    # Claim 3: the total swing is modest ("relatively little variation").
    assert avfs[-1] - avfs[0] < 0.10


def test_bench_fig8_loop_fraction_matches_paper(bigcore_design, bigcore_ports):
    """Sanity anchor: the design sits in the paper's 2-3 % loop regime."""
    result = run_sart(bigcore_design.module, bigcore_ports,
                      SartConfig(partition_by_fub=False))
    frac = result.stats["loop_bits"] / result.stats["sequentials"]
    print(f"\nloop bits: {int(result.stats['loop_bits'])} / "
          f"{int(result.stats['sequentials'])} = {frac:.1%} (paper: 2-3%)")
    assert 0.005 < frac < 0.08
