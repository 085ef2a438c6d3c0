"""FUB partitioning (paper Section 5.2).

"It may be advantageous to partition the RTL ... For our purposes, the
natural boundaries of the RTL are at the FUB boundaries." Each node's FUB
comes from its ``fub`` instance attribute (inherited through flattening);
untagged nodes form the ``""`` partition.

The partition also precomputes the FUBIO interconnect: for every
cross-partition edge, the driver net's forward value must be exported to
the consuming FUB and the consumer's backward value exported to the
driving FUB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.graphmodel import AvfModel


@dataclass
class FubPartition:
    """Net sets per FUB plus the FUBIO interconnect net lists."""

    fubs: dict[str, set[str]] = field(default_factory=dict)
    # Nets whose forward value must be exported (drivers of cross edges).
    forward_exports: set[str] = field(default_factory=set)
    # Nets whose backward value must be exported (consumers of cross edges).
    backward_exports: set[str] = field(default_factory=set)


def partition_by_fub(model: AvfModel) -> FubPartition:
    """Partition the node graph along FUB boundaries."""
    part = FubPartition()
    graph = model.graph
    names, fubs, ptr, ix = graph.names, graph.fubs, graph.fanin_ptr, graph.fanin_ix
    for net, fub in zip(names, fubs):
        part.fubs.setdefault(fub, set()).add(net)
    for nid, net in enumerate(names):
        for j in ix[ptr[nid]:ptr[nid + 1]]:
            if fubs[j] != fubs[nid]:
                part.forward_exports.add(names[j])
                part.backward_exports.add(net)
    return part
