"""Port-AVF inputs of the ACE structures, as SART reads them.

The ACE model (:mod:`repro.ace.portavf`) produces one
:class:`StructurePorts` per structure; a solve plan binds its structure
atoms to these values (paper step 4, mapped in
:meth:`repro.core.compiled.SolvePlan._classify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass
class StructurePorts:
    """Port-AVF inputs of one ACE structure (from the ACE model).

    ``pavf_r``/``pavf_w`` may be scalars (applied to every bit) or flat
    per-bit sequences. For a MEM with ``nread`` ports of ``width`` bits the
    read flat index is ``port * width + bit``; writes index ``bit``. For a
    DFF latch array both index the array bit.

    ``avf`` is the measured structure AVF (Eq 3) used in the final report
    for the structure's own storage bits; ``None`` defers to the
    environment default.

    ``deadlines`` optionally carries the structure's error-reporting
    deadline distribution (JSON-safe summary,
    :meth:`repro.ace.lifetime.StructureAvf.deadline_summary`). It rides
    along for reporting — the AVF walker itself never reads it.
    """

    name: str
    pavf_r: float | Sequence[float] = 1.0
    pavf_w: float | Sequence[float] = 1.0
    avf: float | None = None
    deadlines: Mapping | None = None

    def read_value(self, flat_bit: int) -> float:
        return _pick(self.pavf_r, flat_bit)

    def write_value(self, flat_bit: int) -> float:
        return _pick(self.pavf_w, flat_bit)

    def read_port_rate(self) -> float:
        """Rate applied to read-address nets (max bit value, conservative)."""
        return _rate(self.pavf_r)

    def write_port_rate(self) -> float:
        """Rate applied to write-address/enable nets."""
        return _rate(self.pavf_w)


def _pick(value: float | Sequence[float], bit: int) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    if bit >= len(value):
        return float(value[-1]) if len(value) else 1.0
    return float(value[bit])


def _rate(value: float | Sequence[float]) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    return max((float(v) for v in value), default=1.0)
