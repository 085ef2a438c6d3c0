"""Final resolution phase (paper Section 4.2, Table 1).

"After completing both the 'up' and 'down' walks, most nodes are annotated
with two pAVF values. For the nodes that have pAVF values computed by the
ACE model, the estimate value is discarded in favor of the computed value.
For the remaining nodes, the smaller of the two estimates can be used
since both values are obtained conservatively."
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from repro.core.graphmodel import AvfModel
from repro.core.pavf import Atom, CTRL, LOOP, PavfEnv, TOP, value_of
from repro.netlist.graph import NodeKind

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


def resolve(
    model: AvfModel,
    f_sets: Mapping[str, frozenset[Atom]],
    b_sets: Mapping[str, frozenset[Atom]],
    env: PavfEnv,
    structures=None,
) -> dict[str, NodeAvf]:
    """Compute the final per-node AVF from the two directional estimates.

    *structures* optionally overrides ``model.structures`` when looking up
    measured structure AVFs (used by closed-form re-evaluation).
    """
    structures = structures if structures is not None else model.structures
    out: dict[str, NodeAvf] = {}
    graph = model.graph
    for net, kind, fub in zip(graph.names, graph.kinds, graph.fubs):
        f_set = f_sets.get(net)
        b_set = b_sets.get(net)
        f_val = value_of(f_set, env) if f_set is not None else 1.0
        b_val = value_of(b_set, env) if b_set is not None else 1.0
        visited = not (
            (f_set is None or TOP in f_set) and (b_set is None or TOP in b_set)
        )

        if net in model.struct_nodes:
            role = ROLE_STRUCT
            sname, _bit = model.struct_nodes[net]
            ports = structures.get(sname)
            measured = ports.avf if ports is not None else None
            avf = measured if measured is not None else min(f_val, b_val)
            visited = True
        elif net in model.loop_nets:
            role = ROLE_LOOP
            avf = env.lookup(Atom(LOOP, net))
            visited = True
        elif net in model.ctrl_nets:
            # Control registers are structure-like: their AVF is the
            # injected read-port value (100 % by default), not an estimate.
            role = ROLE_CTRL
            avf = env.lookup(Atom(CTRL, net))
            visited = True
        elif kind == NodeKind.CONST:
            role = ROLE_CONST
            avf = min(f_val, b_val)
        elif kind == NodeKind.INPUT:
            role = ROLE_INPUT
            avf = min(f_val, b_val)
        elif kind == NodeKind.MEM_RDATA:
            role = ROLE_MEM
            avf = min(f_val, b_val)
            visited = True
        else:
            role = ROLE_LOGIC
            avf = min(f_val, b_val)

        out[net] = NodeAvf(
            net=net,
            kind=kind,
            fub=fub,
            role=role,
            avf=avf,
            forward=f_val,
            backward=b_val,
            visited=visited,
        )
    return out
