"""Quantized AVF: sequential vulnerability as a time series.

Combines two of the authors' techniques: windowed port AVFs (Quantized
AVF, SELSE 2009) plug into SART's closed-form equations (MICRO 2015,
Section 5.2), giving the average sequential AVF of every execution window
with a single walk of the design.

The workload is phase-shifting on purpose — a compute-heavy stretch, an
idle stretch, then a memory-bound stretch — so the time series should
visibly track the phases.

Run:  python examples/quantized_avf.py
"""

from repro import run_sart
from repro.ace.portavf import ports_from_analysis
from repro.ace.quantized import quantized_seq_avf, run_windowed
from repro.designs.bigcore import BigcoreConfig, build_bigcore, map_structure_ports
from repro.perfmodel.trace import mark_ace, merge_traces
from repro.workloads.generator import WorkloadSpec, generate_trace

WINDOW = 250


def phased_trace():
    phases = [
        WorkloadSpec(name="compute", length=3000, frac_alu=0.7, frac_load=0.1,
                     frac_store=0.1, frac_branch=0.1, frac_nop=0.0,
                     frac_prefetch=0.0, dead_fraction=0.02, seed=1),
        WorkloadSpec(name="idle", length=3000, frac_alu=0.25, frac_nop=0.4,
                     frac_prefetch=0.15, frac_load=0.1, frac_store=0.05,
                     frac_branch=0.05, dead_fraction=0.5, seed=2),
        WorkloadSpec(name="memory", length=3000, frac_alu=0.3, frac_load=0.4,
                     frac_store=0.2, frac_branch=0.1, frac_nop=0.0,
                     frac_prefetch=0.0, dead_fraction=0.1, seed=3),
    ]
    return mark_ace(merge_traces("phased", [generate_trace(s) for s in phases]))


def main():
    print("building bigcore, walking once...")
    design = build_bigcore(BigcoreConfig(scale=0.5))

    structures, windows = run_windowed(phased_trace(), WINDOW)
    cycles = structures["rob"].cycles

    # One SART walk at whole-run pAVFs; the windows plug into its equations.
    whole_run = map_structure_ports(design, ports_from_analysis(structures))
    result = run_sart(design.module, whole_run)
    closed = result.closed_form()
    tables = [map_structure_ports(design, t) for t in windows]
    series = quantized_seq_avf(closed, tables)

    print(f"\n{cycles} cycles in {len(series)} windows of {WINDOW}; "
          f"whole-run avg {result.report.weighted_seq_avf:.3f}\n")
    peak = max(series) or 1.0
    for i, avf in enumerate(series):
        bar = "#" * max(1, int(40 * avf / peak))
        print(f"  window {i:2d} [{i*WINDOW:5d}..{min((i+1)*WINDOW, cycles):5d})"
              f"  {avf:.3f}  {bar}")
    print("\nphases (compute / idle / memory) are visible as AVF level shifts;")
    print("no re-walk was needed for any window (closed-form plug-in only).")


if __name__ == "__main__":
    main()
