"""Workload-resolved sequential AVFs via the closed-form equations.

The paper's production payoff (Section 5.2): after one SART run, new
workloads cost only an ACE-model pass plus a plug-in evaluation — no
re-walking. This script computes bigcore's average sequential AVF for
each of the eight workload classes separately, the kind of
per-application-suite targeting the paper describes ("It also allows the
structure AVFs to be targeted to specific workloads and/or application
suites").

Run:  python examples/closed_form_workloads.py
"""

import time

from repro import run_sart
from repro.ace.portavf import suite_ports
from repro.core.report import average_seq_avf
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports
from repro.workloads import SUITE_CLASSES, default_suite, suite_by_class


def main():
    print("building bigcore and the baseline (whole-suite) SART run...")
    design = build_bigcore(BigcoreConfig(scale=0.6))
    base_ports, _ = suite_ports(default_suite(per_class=2, length=3000))
    mapped = map_structure_ports(design, base_ports)

    started = time.perf_counter()
    base = run_sart(design.module, mapped)
    walk_seconds = time.perf_counter() - started
    closed = base.closed_form()
    print(f"baseline walk: {walk_seconds:.2f}s, "
          f"{closed.term_count():,} closed-form terms\n")

    print(f"{'class':<10}{'ACE-model time':>16}{'plug-in time':>14}{'avg seq AVF':>13}")
    for class_name in sorted(SUITE_CLASSES):
        t0 = time.perf_counter()
        traces = suite_by_class(class_name, count=2, length=3000)
        ports, _ = suite_ports(traces)
        ace_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        node_avfs = closed.evaluate(map_structure_ports(design, ports))
        plug_seconds = time.perf_counter() - t0
        avg = average_seq_avf(node_avfs)
        print(f"{class_name:<10}{ace_seconds:>15.2f}s{plug_seconds:>13.3f}s{avg:>13.4f}")

    print("\nno SART re-walks were needed — each row is Eq-plug-in only,")
    print("exactly the paper's 'no subsequent sequential AVF computation")
    print("needs to re-run the SART or relaxation stages'.")


if __name__ == "__main__":
    main()
