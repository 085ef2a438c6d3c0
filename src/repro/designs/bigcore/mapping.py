"""ACE-structure -> RTL bit mapping for bigcore (paper step 4).

"The third step involved mapping between the high-level structures found
in the ACE model and the actual bits in the RTL. Often an individual
structure is composed of several arrays."

Each bigcore latch array was generated as a slice of one performance-model
structure (its ``structure_kind``); this module gives every array its port
AVFs from the corresponding ACE-analyzed structure, with a deterministic
per-array jitter standing in for the fact that different RTL arrays of
one logical structure see different slices of its traffic.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.core.graphmodel import StructurePorts
from repro.errors import MappingError

# Relative spread of each array's rates around its structure's, and the
# seed that draws it (one fixed draw per array, in array order).
JITTER = 0.25
JITTER_SEED = 7


def map_structure_ports(
    design,
    model_ports: Mapping[str, StructurePorts],
) -> dict[str, StructurePorts]:
    """Build the per-array StructurePorts table for SART.

    Args:
        design: The generated bigcore, or its resolved design artifact:
            only its ``structure_kinds`` are read.
        model_ports: ACE-model output, keyed by performance-model structure
            name (fetch_buffer, inst_queue, rob, regfile, load_queue,
            store_buffer).
    """
    rng = random.Random(JITTER_SEED)
    out: dict[str, StructurePorts] = {}
    for array_name, kind in design.structure_kinds.items():
        base = model_ports.get(kind)
        if base is None:
            raise MappingError(
                f"array {array_name!r} maps to {kind!r}, absent from the ACE model"
            )
        factor = 1.0 + rng.uniform(-JITTER, JITTER)
        out[array_name] = StructurePorts(
            name=array_name,
            pavf_r=_clamp(_scalar(base.pavf_r) * factor),
            pavf_w=_clamp(_scalar(base.pavf_w) * factor),
            avf=_clamp(_scalar(base.avf) * factor) if base.avf is not None else None,
            # Deadlines are consumption timings from the performance
            # model; the per-array rate jitter does not apply to them.
            deadlines=base.deadlines,
        )
    return out


def _scalar(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    values = list(value)
    return sum(values) / len(values) if values else 0.0


def _clamp(value: float) -> float:
    return min(1.0, max(0.0, value))
