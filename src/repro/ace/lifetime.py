"""ACE lifetime analysis (Mukherjee et al. [1]; paper Eq 3).

Every modelled structure owns one :class:`StructureLifetime` and reports
its own write/read/release events to it: a performance-model
:class:`~repro.perfmodel.structures.SimStructure` builds one from its
size, width and port counts, and tinycore's archsim holds one for its
register file and one for its data memory. A lifetime integrates the
number of bit-cycles during which its structure held ACE (or unknown)
state:

* a segment opens at a write with its ACE bit count;
* ACE residency accrues from the write to the **last read** of the
  segment (data read later is needed that long);
* the idle tail between the last read and the overwrite/eviction is
  un-ACE when the release is marked *consumed*, and entirely un-ACE when
  the value was never read and the release says so;
* segments still open when simulation ends are **unknown** and counted as
  ACE, exactly as Eq 3 prescribes ("ACE+unknown bits").

``StructureAvf.avf`` is then ACE bit-cycles divided by (bits x cycles).
The same events feed the ACE read/write counters and bit sums that
:mod:`repro.ace.portavf` turns into port AVFs, and that
:mod:`repro.ace.quantized` splits into time windows.

Beyond the AVF integral, every consumed segment also records its
**error-reporting deadline** — the number of cycles between the write
and the (last) consumption of the value, i.e. how long an error-check
has to report a corruption in that value before it is architecturally
consumed (Jaulmes et al.). The per-structure
:class:`DeadlineDistribution` is an exact weighted histogram of those
deadlines, ace-bit-weighted, so its total mass equals the structure's
ACE bit-cycles by construction (the conservation invariant the verify
harness checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import AceError


@dataclass(slots=True)
class _Segment:
    start: int
    ace_bits: int
    last_read: int | None = None
    reads: int = 0


@dataclass
class DeadlineDistribution:
    """Weighted histogram of error-reporting deadlines (cycles).

    One entry per *consumed* ACE segment: the deadline is the segment's
    write-to-consumption span, the weight its ACE bit count. Never-
    consumed writes contribute no event (a corruption there has no
    reporting deadline — it is architecturally masked), and segments
    still open at end of simulation are *unknown*, not part of the
    histogram. Accumulation is commutative, so event order within a
    cycle cannot perturb the distribution, and :meth:`merge` of
    partitioned accumulators equals one-shot accumulation exactly.
    """

    histogram: dict[int, float] = field(default_factory=dict)
    events: int = 0

    def record(self, deadline: int, weight: float) -> None:
        if weight <= 0:
            return
        self.histogram[deadline] = self.histogram.get(deadline, 0.0) + weight
        self.events += 1

    def merge(self, other: "DeadlineDistribution") -> None:
        for deadline, weight in other.histogram.items():
            self.histogram[deadline] = self.histogram.get(deadline, 0.0) + weight
        self.events += other.events

    def total_weight(self) -> float:
        return sum(self.histogram.values())

    def weighted_cycles(self) -> float:
        """Total deadline x weight mass — equals the ACE bit-cycles
        contributed by consumed segments (the conservation invariant)."""
        return sum(d * w for d, w in self.histogram.items())

    def quantile(self, q: float) -> int:
        """Smallest deadline covering fraction *q* of the ACE-bit mass."""
        total = self.total_weight()
        if total <= 0:
            return 0
        acc = 0.0
        for deadline in sorted(self.histogram):
            acc += self.histogram[deadline]
            if acc >= q * total - 1e-12:
                return deadline
        return self.max_deadline()

    def max_deadline(self) -> int:
        return max(self.histogram) if self.histogram else 0

    def mean(self) -> float:
        total = self.total_weight()
        return self.weighted_cycles() / total if total > 0 else 0.0

    def to_summary(self) -> dict:
        """JSON-safe form (string histogram keys round-trip)."""
        return {
            "events": self.events,
            "total_weight": self.total_weight(),
            "mass_cycles": self.weighted_cycles(),
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "max": self.max_deadline(),
            "mean": self.mean(),
            "histogram": {str(d): w for d, w in sorted(self.histogram.items())},
        }

    @classmethod
    def from_summary(cls, summary: Mapping) -> "DeadlineDistribution":
        out = cls()
        out.events = int(summary.get("events", 0))
        out.histogram = {
            int(d): float(w) for d, w in summary.get("histogram", {}).items()
        }
        return out

    @classmethod
    def merged(cls, parts: Iterable["DeadlineDistribution"]) -> "DeadlineDistribution":
        out = cls()
        for part in parts:
            out.merge(part)
        return out


@dataclass
class StructureAvf:
    """Per-structure accumulators and derived metrics."""

    name: str
    entries: int
    bits_per_entry: int
    nread: int = 1
    nwrite: int = 1
    ace_bit_cycles: float = 0.0
    unknown_bit_cycles: float = 0.0
    total_reads: int = 0
    ace_reads: int = 0
    total_writes: int = 0
    ace_writes: int = 0
    ace_read_bitsum: float = 0.0   # sum of ace_bits over segments, per read
    ace_write_bitsum: float = 0.0  # sum of ace_bits over writes
    cycles: int = 0
    deadlines: DeadlineDistribution = field(default_factory=DeadlineDistribution)

    def avf(self) -> float:
        """Structure AVF per Eq 3 (unknown counted as ACE)."""
        denom = self.entries * self.bits_per_entry * max(1, self.cycles)
        return min(1.0, (self.ace_bit_cycles + self.unknown_bit_cycles) / denom)

    def pavf_r(self) -> float:
        """Read-port pAVF: ACE reads per simulated cycle (per port)."""
        return min(1.0, self.ace_reads / (max(1, self.cycles) * self.nread))

    def pavf_w(self) -> float:
        """Write-port pAVF: ACE writes per simulated cycle (per port)."""
        return min(1.0, self.ace_writes / (max(1, self.cycles) * self.nwrite))

    def pavf_r_bitwise(self) -> float:
        """Bit-weighted read pAVF (bit-field refinement).

        Weights each ACE read by the fraction of the entry's bits that
        were ACE, so control structures with sparse ACE fields get the
        "much less conservative" value of Section 5.1.
        """
        denom = max(1, self.cycles) * self.nread * self.bits_per_entry
        return min(1.0, self.ace_read_bitsum / denom)

    def pavf_w_bitwise(self) -> float:
        denom = max(1, self.cycles) * self.nwrite * self.bits_per_entry
        return min(1.0, self.ace_write_bitsum / denom)

    def ace_throughput(self) -> float:
        """ACE values entering per cycle (Little's-law throughput term)."""
        return self.ace_writes / max(1, self.cycles)

    def deadline_summary(self) -> dict:
        """JSON-safe deadline distribution with its conservation context.

        ``mass_cycles`` must equal ``ace_bit_cycles`` (every consumed
        segment's span x ace_bits lands in both), ``max`` never exceeds
        ``cycles`` — the invariants the deadline-sanity oracle checks.
        """
        summary = self.deadlines.to_summary()
        summary["ace_bit_cycles"] = self.ace_bit_cycles
        summary["unknown_bit_cycles"] = self.unknown_bit_cycles
        summary["cycles"] = self.cycles
        return summary


class StructureLifetime:
    """One modelled structure's ACE lifetime analysis.

    Owns the structure's :class:`StructureAvf` counters, its open
    segments keyed by entry and its ACE latency sums. The structure
    reports its own events here, so no event names a structure and a
    structure's size, width and port counts are given once, where it is
    constructed.
    """

    __slots__ = ("stats", "open", "latency_sum", "latency_count", "_finished")

    def __init__(
        self, name: str, entries: int, bits_per_entry: int, nread: int = 1, nwrite: int = 1
    ) -> None:
        self.stats = StructureAvf(
            name=name, entries=entries, bits_per_entry=bits_per_entry,
            nread=nread, nwrite=nwrite,
        )
        self.open: dict[int, _Segment] = {}
        self.latency_sum = 0.0
        self.latency_count = 0
        self._finished = False

    def _close(self, segment: _Segment, end: int, consumed: bool) -> None:
        if segment.ace_bits <= 0:
            return
        if segment.last_read is not None:
            span = max(0, segment.last_read - segment.start)
        elif consumed:
            # Consumed at release without an explicit read event
            # (e.g. drained): the whole residency mattered.
            span = max(0, end - segment.start)
        else:
            span = 0  # written, never needed: un-ACE residency
        stats = self.stats
        stats.ace_bit_cycles += span * segment.ace_bits
        if segment.last_read is not None or consumed:
            # A consumption event: the span is the error-reporting
            # deadline for this value. Never-consumed segments record
            # nothing (and contribute 0 bit-cycles above), which keeps
            # histogram mass == ace_bit_cycles exact.
            stats.deadlines.record(span, segment.ace_bits)
        self.latency_sum += span
        self.latency_count += 1

    def write(self, entry: int, cycle: int, ace: bool, ace_bits: int | None = None) -> None:
        """A value lands in *entry*; *ace_bits* defaults to the full
        width for an ACE value and 0 otherwise."""
        previous = self.open.pop(entry, None)
        if previous is not None:
            self._close(previous, cycle, consumed=previous.reads > 0)
        stats = self.stats
        effective_bits = (
            ace_bits if ace_bits is not None else (stats.bits_per_entry if ace else 0)
        )
        self.open[entry] = _Segment(cycle, effective_bits)
        stats.total_writes += 1
        if effective_bits > 0:
            stats.ace_writes += 1
            stats.ace_write_bitsum += effective_bits

    def read(self, entry: int, cycle: int, ace: bool) -> None:
        segment = self.open.get(entry)
        if segment is None:
            raise AceError(f"{self.stats.name}[{entry}]: read before write")
        segment.last_read = cycle
        segment.reads += 1
        stats = self.stats
        stats.total_reads += 1
        if ace and segment.ace_bits > 0:
            stats.ace_reads += 1
            stats.ace_read_bitsum += segment.ace_bits

    def release(self, entry: int, cycle: int, consumed: bool) -> None:
        segment = self.open.pop(entry, None)
        if segment is None:
            raise AceError(f"{self.stats.name}[{entry}]: release before write")
        self._close(segment, cycle, consumed=consumed)

    def finish(self, cycles: int) -> StructureAvf:
        """Close the analysis window; open segments become 'unknown'."""
        if self._finished:
            raise AceError(f"{self.stats.name}: finish() called twice")
        self._finished = True
        stats = self.stats
        for segment in self.open.values():
            if segment.ace_bits > 0:
                stats.unknown_bit_cycles += max(0, cycles - segment.start) * segment.ace_bits
        self.open.clear()
        stats.cycles = cycles
        return stats

    def mean_ace_latency(self) -> float:
        """Average ACE residency per value (Little's-law latency term)."""
        if not self.latency_count:
            return 0.0
        return self.latency_sum / self.latency_count


def merge_deadline_summaries(summaries: Iterable[Mapping]) -> dict:
    """Pool per-workload deadline summaries into one suite-level summary.

    Deadlines pool by union (a suite's distribution is every workload's
    consumption events together, not an average), and the conservation
    context — ACE bit-cycles and the observation window — adds up, so
    the merged summary satisfies the same mass invariant the per-workload
    ones do.
    """
    summaries = list(summaries)
    merged = DeadlineDistribution.merged(
        DeadlineDistribution.from_summary(s) for s in summaries
    )
    out = merged.to_summary()
    out["ace_bit_cycles"] = sum(float(s.get("ace_bit_cycles", 0.0)) for s in summaries)
    out["unknown_bit_cycles"] = sum(
        float(s.get("unknown_bit_cycles", 0.0)) for s in summaries
    )
    out["cycles"] = sum(int(s.get("cycles", 0)) for s in summaries)
    return out
