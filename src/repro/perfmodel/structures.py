"""Modelled storage structures with ACE lifetime analysis.

Every micro-architectural structure in the performance model is a
:class:`SimStructure`: a fixed pool of entries with allocate/read/release
operations. Each structure builds its own
:class:`~repro.ace.lifetime.StructureLifetime` from its size, width and
port counts and reports every operation to it, which is how
"read/write events" reach ACE lifetime analysis and the port-AVF
counters without the pipeline knowing anything about AVF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ace.lifetime import StructureLifetime
from repro.errors import AceError


@dataclass
class SimStructure:
    """One storage structure of the performance model.

    Attributes:
        name: Structure name (the key SART structures map against).
        entries: Number of entries.
        bits_per_entry: Width used for AVF weighting.
        nread / nwrite: Port counts (used to normalize port AVFs).
        lifetime: The structure's ACE lifetime analysis.
    """

    name: str
    entries: int
    bits_per_entry: int
    nread: int = 1
    nwrite: int = 1
    lifetime: StructureLifetime = field(init=False, repr=False)
    _free: list[int] = field(default_factory=list)
    _busy: set[int] = field(default_factory=set)
    occupancy_accum: int = 0
    occupancy_samples: int = 0

    def __post_init__(self) -> None:
        self._free = list(range(self.entries))
        self.lifetime = StructureLifetime(
            self.name, self.entries, self.bits_per_entry, self.nread, self.nwrite
        )

    # ------------------------------------------------------------------
    def is_full(self) -> bool:
        return not self._free

    def occupancy(self) -> int:
        return len(self._busy)

    def sample_occupancy(self) -> None:
        self.occupancy_accum += len(self._busy)
        self.occupancy_samples += 1

    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_accum / self.occupancy_samples

    # ------------------------------------------------------------------
    def alloc(
        self, cycle: int, ace: bool, ace_bits: int | None = None, record: bool = True
    ) -> int | None:
        """Allocate an entry and record the write; None when full.

        ``record=False`` reserves the entry without emitting a write event
        — used when allocation and data arrival happen at different times
        (e.g. physical registers renamed at dispatch, written at
        writeback); the caller then records the real write via
        :meth:`write`.
        """
        if not self._free:
            return None
        entry = self._free.pop()
        self._busy.add(entry)
        if record:
            self.lifetime.write(entry, cycle, ace, ace_bits)
        return entry

    def write(self, entry: int, cycle: int, ace: bool, ace_bits: int | None = None) -> None:
        """Overwrite an already-allocated entry (recorded as a new write)."""
        if entry not in self._busy:
            raise AceError(f"{self.name}: write to unallocated entry {entry}")
        self.lifetime.write(entry, cycle, ace, ace_bits)

    def read(self, entry: int, cycle: int, ace: bool) -> None:
        if entry not in self._busy:
            raise AceError(f"{self.name}: read of unallocated entry {entry}")
        self.lifetime.read(entry, cycle, ace)

    def release(self, entry: int, cycle: int, consumed: bool = True) -> None:
        if entry not in self._busy:
            raise AceError(f"{self.name}: release of unallocated entry {entry}")
        self._busy.discard(entry)
        self._free.append(entry)
        self.lifetime.release(entry, cycle, consumed)
