"""The Figure 10 experiment: model vs (simulated) beam measurement.

Exposes tinycore running the paper's two beam workloads — lattice2d and
md5mix — to a simulated accelerated particle beam, then compares the
measured SDC rate against Eq 1 models built with (a) the conservative
structure-AVF proxy and (b) SART's computed sequential AVFs, in
normalized arbitrary units exactly like the paper's plot.

Run:  python examples/silicon_correlation.py [exposures]
"""

import sys

from repro.pipeline import BeamSpec
from repro.ser.correlation import correlate_workloads


def bar(value: float, scale: float = 14.0) -> str:
    return "#" * max(1, int(value * scale))


def main(exposures: int = 378):
    beam = BeamSpec(flux=1e-5, exposures=exposures, seed=77)
    print(f"beam: flux={beam.flux:g} upsets/bit/cycle, "
          f"{exposures} device exposures per workload\n")
    rows = correlate_workloads(("lattice2d", "md5mix"), beam=beam)

    for row in rows:
        norm = row.normalized()
        lo, hi = row.measured.rate_interval()
        ref = row.measured_rate or 1.0
        print(f"--- {row.workload} "
              f"({row.measured.sdc_events} SDC events / {row.measured.exposures} exposures) ---")
        print(f"  measured      {bar(1.0)}  1.00  "
              f"(95% CI [{lo / ref:.2f}, {hi / ref:.2f}])")
        print(f"  proxy model   {bar(norm['proxy'])}  {norm['proxy']:.2f}")
        print(f"  seq-AVF model {bar(norm['sart'])}  {norm['sart']:.2f}")
        print(f"  sequential AVF: proxy {row.seq_avf_proxy:.3f} -> "
              f"SART {row.seq_avf_sart:.3f} "
              f"({row.sequential_avf_reduction:.0%} lower; paper: ~63%)")
        print(f"  correlation improvement: {row.correlation_improvement:.0%} "
              f"(paper: ~66%)\n")

    mean = sum(r.correlation_improvement for r in rows) / len(rows)
    print(f"mean correlation improvement across workloads: {mean:.0%}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 378)
