"""The Figure 8 study: choosing the loop-boundary pAVF for a design.

"The RTL node walker can easily find and break loops and inject static
pAVF values into those nodes... The challenge is in choosing a static
value that is conservative without causing the propagated pAVFs to
saturate... this is a simple study to run for each design."

This script runs that study on the synthetic big core and renders the
curve as an ASCII plot. Note the two claims visible in the output: the
average does NOT saturate even at 100 %, and the response is concave.

Run:  python examples/loop_study.py [scale]
"""

import sys

from repro import SartConfig, run_sart
from repro.ace.portavf import suite_ports
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports
from repro.workloads import default_suite


def main(scale: float = 0.5):
    print(f"building bigcore (scale={scale}) and ACE-analyzing the suite...")
    design = build_bigcore(BigcoreConfig(scale=scale))
    traces = default_suite(per_class=2, length=4000)
    model_ports, _ = suite_ports(traces)
    ports = map_structure_ports(design, model_ports)

    points = []
    for i in range(11):
        value = i / 10
        result = run_sart(design.module, ports,
                          SartConfig(loop_pavf=value))
        points.append((value, result.report.weighted_seq_avf))
        loops = int(result.stats["loop_bits"])

    lo = min(a for _, a in points)
    hi = max(a for _, a in points)
    span = (hi - lo) or 1.0
    print(f"\n{loops} loop-boundary bits "
          f"({loops / result.stats['sequentials']:.1%} of sequentials)\n")
    print("loop pAVF   avg sequential AVF")
    for value, avf in points:
        bar = "#" * (2 + int(46 * (avf - lo) / span))
        print(f"  {value:4.1f}      {avf:.4f}  {bar}")

    slopes = [points[i + 1][1] - points[i][1] for i in range(len(points) - 1)]
    print(f"\nslope falls from {slopes[0]:.4f}/0.1 to {slopes[-1]:.4f}/0.1 "
          f"(concave, no saturation — paper Figure 8)")
    print("paper's choice for their design: 0.3 (the heel of their curve)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
