"""E4 — Figure 10: model vs (simulated) silicon measurement.

The paper's beam-tested workloads were Lattice and MD5Sum. Before the
sequential-AVF work their SDC model over-predicted the measurement by
nearly 100 % (structure AVFs used as a proxy for sequential AVFs); the
computed sequential AVFs were ~63 % lower than the proxy and improved the
correlation by ~66 %.

We reproduce the experiment end to end: tinycore runs lattice2d and
md5mix under a simulated proton beam (Poisson strikes, Poisson error
bars); Eq 1 models the SDC rate with (a) the structure-AVF proxy and
(b) SART sequential AVFs. Values print in arbitrary units normalized to
the measurement, like the paper's plot.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.pipeline import BeamSpec
from repro.ser.correlation import correlate_workloads

BEAM = BeamSpec(flux=1e-5, exposures=378, seed=77)


@pytest.fixture(scope="module")
def rows():
    return correlate_workloads(("lattice2d", "md5mix"), beam=BEAM)


def test_bench_fig10_correlation(benchmark):
    result = benchmark.pedantic(
        lambda: correlate_workloads(("lattice2d", "md5mix"), beam=BEAM),
        rounds=1, iterations=1,
    )

    table = []
    for row in result:
        norm = row.normalized()
        lo, hi = row.measured.rate_interval()
        table.append([
            row.workload,
            f"{row.measured.sdc_events}/{row.measured.exposures}",
            1.0,
            f"[{lo / (row.measured_rate or 1):.2f},{hi / (row.measured_rate or 1):.2f}]",
            norm["proxy"],
            norm["sart"],
            f"{row.correlation_improvement:.0%}",
        ])
    print_table(
        "Figure 10 — SDC SER in arbitrary units (measured = 1.0)",
        ["workload", "events", "measured", "meas 95% CI", "proxy model", "seq-AVF model", "corr. gain"],
        table,
    )
    mean_gain = sum(r.correlation_improvement for r in result) / len(result)
    mean_reduction = sum(r.sequential_avf_reduction for r in result) / len(result)
    print(f"paper: proxy off by ~100%, seq AVFs ~63% lower, correlation ~66% better")
    print(f"measured: mean corr. improvement {mean_gain:.0%}, "
          f"mean sequential-AVF reduction {mean_reduction:.0%}")

    for row in result:
        # Shape 1: the proxy over-predicts strongly (paper: ~2x).
        assert row.normalized()["proxy"] > 1.5
        # Shape 2: sequential AVFs close most of the gap...
        assert row.normalized()["sart"] < row.normalized()["proxy"]
        assert row.correlation_improvement > 0.25
        # ...while the model stays conservative (never below measurement).
        assert row.modeled_sart >= row.measured_rate * 0.95
    assert mean_gain > 0.4


def test_bench_fig10_sequential_avf_drop(rows):
    """The computed sequential AVFs sit well below the proxy values."""
    table = [
        [r.workload, r.seq_avf_proxy, r.seq_avf_sart, f"{r.sequential_avf_reduction:.0%}"]
        for r in rows
    ]
    print_table(
        "Sequential AVF: structure proxy vs computed (paper: ~63% lower)",
        ["workload", "proxy AVF", "SART seq AVF", "reduction"],
        table,
    )
    for r in rows:
        assert r.seq_avf_sart < r.seq_avf_proxy * 0.85
