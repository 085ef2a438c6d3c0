"""The paper's primary contribution: sequential AVF via pAVF propagation.

Pipeline (paper Section 5, "Implementation and Tool Flow"):

1. ACE analysis on a performance model produces per-structure *port AVFs*
   (:mod:`repro.ace.portavf`).
2. The RTL is compiled/flattened and its node graph extracted
   (:mod:`repro.netlist`).
3. Structure bits are mapped onto RTL bits from instance attributes and
   MEM instances, once per solve plan
   (:meth:`repro.core.compiled.SolvePlan._classify`).
4. SART — the Sequential AVF Resolution Tool — walks pAVF values through
   the node graph: forward from read ports, backward from write ports,
   with loop breaking, control-register injection and per-FUB relaxation
   (:mod:`repro.core.sart`).
5. Every node is annotated with ``AVF = MIN(forward, backward)``
   (:func:`repro.core.compiled.resolve_ids`), and per-FUB reports are
   produced (:mod:`repro.core.report`).
"""

from repro.core.pavf import TOP, Atom, PavfEnv, union, value_of
from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartConfig, SartResult, run_sart
from repro.core.report import FubReport, fub_report
from repro.core.symbolic import ClosedForm
from repro.core.loopchar import characterize_loops, tinycore_loop_rates
from repro.core.export import (
    closed_form_text,
    fub_report_csv,
    node_avfs_csv,
    summary_json,
    worst_nodes,
)

__all__ = [
    "Atom",
    "characterize_loops",
    "closed_form_text",
    "fub_report_csv",
    "node_avfs_csv",
    "summary_json",
    "tinycore_loop_rates",
    "worst_nodes",
    "ClosedForm",
    "FubReport",
    "PavfEnv",
    "SartConfig",
    "SartResult",
    "StructurePorts",
    "TOP",
    "fub_report",
    "run_sart",
    "union",
    "value_of",
]
