"""Bring-your-own-workload: assembly in, sequential AVFs out.

Shows the downstream-user path: write a program in the tinycore mini
assembly, run the whole analysis pipeline on it, and get back the
hardened-cell shopping list (the highest-AVF flops) plus exportable CSV.

Run:  python examples/custom_program.py
"""

import csv
import io

from repro import SartConfig, run_sart
from repro.core.export import node_avfs_csv, worst_nodes
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.assembler import assemble
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.ser.correlation import TINYCORE_LOOP_PAVF

# A dot-product kernel over two 8-element vectors in data memory.
SOURCE = """
        LDI  r1, 0          ; index
        LDI  r2, 8          ; length
        LDI  r5, 0          ; accumulator
loop:
        LD   r3, r1, 0      ; a[i]
        LD   r4, r1, 8      ; b[i]
        ; multiply by repeated addition (tinycore has no MUL)
mul:    BEQ  r3, r0, next
        ADD  r5, r5, r4
        LDI  r6, 1
        SUB  r3, r3, r6
        JMP  mul
next:
        ADDI r1, r1, 1
        BNE  r1, r2, loop
        OUT  r5
        HALT
"""

DMEM = [3, 1, 4, 1, 5, 9, 2, 6,      # a[]
        2, 7, 1, 8, 2, 8, 1, 8]      # b[]


def main():
    words = assemble(SOURCE)
    print(f"assembled {len(words)} instructions")

    netlist = build_tinycore(words, DMEM)
    golden = run_gate_level(words, DMEM, netlist=netlist)
    expected = sum(a * b for a, b in zip(DMEM[:8], DMEM[8:]))
    print(f"gate-level result: {golden.outputs[0]} (expected [{expected}]) "
          f"in {golden.cycles} cycles")

    ports, trace, _ = tinycore_structure_ports(
        "dotprod", words, DMEM, gate_cycles=golden.cycles
    )
    result = run_sart(netlist.module, ports,
                      SartConfig(loop_pavf=TINYCORE_LOOP_PAVF))
    print(f"\naverage sequential AVF: {result.report.weighted_seq_avf:.3f}")

    print("\nhardened-cell shopping list (top 10 sequential nodes):")
    graph = result.plan.graph
    for node in worst_nodes(result, count=10):
        inst = graph.nodes[node.net].inst
        print(f"  {inst:20s} fub={node.fub:5s} role={node.role:6s} AVF={node.avf:.3f}")

    rows = csv.DictReader(io.StringIO(node_avfs_csv(result)))
    seq_rows = sum(row["kind"] == "seq" for row in rows)
    print(f"\n(per-node CSV available: {seq_rows} sequential rows)")

    # Mitigation planning — the paper's motivating application: pick the
    # cheapest set of hardened cells that cuts sequential SDC FIT by 40 %.
    from repro.ser.mitigation import SEUT, compare_selections

    plan, proxy_cells = compare_selections(
        result, flat_avf=ports["rf"].avf, target_reduction=0.4, option=SEUT
    )
    print(f"\nmitigation plan (SEUT cells, 40% sequential-FIT reduction):")
    print(f"  per-node AVFs: harden {len(plan.selected)} of "
          f"{result.report.seq_count} flops "
          f"(cost {plan.total_cost:.1f}, achieved {plan.reduction:.0%})")
    print(f"  flat structure-AVF proxy would harden {proxy_cells} flops — "
          f"the efficiency the paper's technique buys")


if __name__ == "__main__":
    main()
