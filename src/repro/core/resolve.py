"""The records of the final resolution phase (paper Section 4.2, Table 1).

"After completing both the 'up' and 'down' walks, most nodes are annotated
with two pAVF values. For the nodes that have pAVF values computed by the
ACE model, the estimate value is discarded in favor of the computed value.
For the remaining nodes, the smaller of the two estimates can be used
since both values are obtained conservatively."

This module holds what that phase produces, one :class:`NodeAvf` per node
and the node roles; the resolution itself runs on a solve's set ids in
:func:`repro.core.compiled.resolve_ids` (its dict-keyed reference is
:func:`repro.verify.reference.resolve`).
"""

from __future__ import annotations

from typing import NamedTuple

# Node roles in the final report.
ROLE_LOGIC = "logic"
ROLE_STRUCT = "struct"
ROLE_CTRL = "ctrl"
ROLE_LOOP = "loop"
ROLE_CONST = "const"
ROLE_INPUT = "input"
ROLE_MEM = "mem"


class NodeAvf(NamedTuple):
    """Resolved AVF of one node.

    A NamedTuple rather than a dataclass: the resolution phase builds one
    per node and frozen-dataclass construction is the dominant cost of
    that loop on large designs.
    """

    net: str
    kind: str          # NodeKind constant
    fub: str
    role: str
    avf: float
    forward: float     # numeric value of the forward (pAVF_R) estimate
    backward: float    # numeric value of the backward (pAVF_W) estimate
    visited: bool      # False when both estimates stayed at the initial TOP
