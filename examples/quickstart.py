"""Quickstart: sequential AVFs for a hand-built datapath in ~40 lines.

Builds the paper's Figure 7 example circuit with the netlist builder,
runs SART, and prints every node's resolved AVF plus its closed-form
equation.

Run:  python examples/quickstart.py
"""

from repro import StructurePorts, run_sart
from repro.netlist.builder import ModuleBuilder


def build_figure7():
    b = ModuleBuilder("fig7")
    tie = b.input("tie_in")
    # ACE structures: single-bit latch arrays tagged struct/bit.
    s1 = b.dff(tie, name="s1", attrs={"struct": "S1", "bit": "0"})
    s2 = b.dff(tie, name="s2", attrs={"struct": "S2", "bit": "0"})
    # The datapath between them: pipeline, join (G1), reconvergence (G2).
    q1a = b.dff(s1, name="q1a")
    q2a = b.dff(q1a, name="q2a")
    q1b = b.dff(s2, name="q1b")
    g1 = b.or_(q1a, q1b, name="g1")
    q3b = b.dff(g1, name="q3b")
    g2 = b.and_(q2a, g1, name="g2")
    q3a = b.dff(g2, name="q3a")
    b.dff(q3a, name="s3", attrs={"struct": "S3", "bit": "0"})
    b.dff(q3b, name="s4", attrs={"struct": "S4", "bit": "0"})
    labels = dict(q1a=q1a, q2a=q2a, q1b=q1b, g1=g1, g2=g2, q3a=q3a, q3b=q3b)
    return b.done(), labels


def main():
    module, labels = build_figure7()

    # Port AVFs normally come from ACE analysis on a performance model
    # (see examples/tinycore_flow.py); here we use the paper's values.
    structures = {
        "S1": StructurePorts("S1", pavf_r=0.10, pavf_w=0.0, avf=0.30),
        "S2": StructurePorts("S2", pavf_r=0.02, pavf_w=0.0, avf=0.30),
        "S3": StructurePorts("S3", pavf_r=0.0, pavf_w=0.05, avf=0.30),
        "S4": StructurePorts("S4", pavf_r=0.0, pavf_w=0.40, avf=0.30),
    }
    result = run_sart(module, structures)

    print("node   forward  backward  AVF=MIN  closed form")
    closed = result.closed_form()
    for label, net in labels.items():
        node = result.node_avfs[net]
        equation = closed.equation_for(net).split(" = ", 1)[1]
        print(f"{label:6s} {node.forward:7.3f} {node.backward:9.3f} "
              f"{node.avf:8.3f}  {equation}")

    print(f"\naverage sequential AVF: {result.report.weighted_seq_avf:.3f}")
    print("note G2: union of pAVF_1 with (pAVF_1 U pAVF_2) is 0.12, not "
          "0.22 — the union is idempotent (paper Section 4.2).")


if __name__ == "__main__":
    main()
