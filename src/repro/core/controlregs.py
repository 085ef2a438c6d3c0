"""Configuration control-register identification (paper Sections 4 and 5.1).

"SART attempts to identify configuration control-register bits, usually by
the RTL name or the driving clock. These bits are assigned a pAVF_R of
100%. Since writes to these control registers are relatively rare, the
pAVF_W will approach 0%. As a result, we can omit walks up from these
write-ports."

Identification here uses, in order:

1. the explicit ``ctrlreg`` instance attribute set by the design,
2. the name patterns of :data:`DEFAULT_PATTERNS` (``cfg``/``csr``/
   ``ctrlreg`` conventions),

mirroring the paper's name-based convention. Driving-clock identification
has no equivalent in our single-clock substrate.
"""

from __future__ import annotations

import re

from repro.netlist.graph import NetGraph

DEFAULT_PATTERNS: tuple[re.Pattern, ...] = tuple(re.compile(p) for p in (
    r"(^|[_/])cfg([_/\[]|$)",
    r"(^|[_/])csr([_/\[]|$)",
    r"(^|[_/])ctrlreg([_/\[]|$)",
))


def find_control_registers(graph: NetGraph) -> set[str]:
    """Nets of sequential nodes identified as control-register bits.

    A structure bit that also matches keeps its structure role: the solve
    plan applies that precedence when it classifies the nodes
    (:meth:`repro.core.compiled.SolvePlan._classify`).
    """
    found: set[str] = set()
    for net, inst, attrs in graph.seq_items():
        if attrs.get("ctrlreg"):
            found.add(net)
            continue
        subject = f"{inst or ''} {net}"
        if any(rx.search(subject) for rx in DEFAULT_PATTERNS):
            found.add(net)
    return found
