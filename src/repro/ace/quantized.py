"""Quantized AVF: vulnerability variation over time windows.

Implements the windowed refinement of Biswas et al., "Quantized AVF: A
Means of Capturing Vulnerability Variations over Small Windows of Time"
(SELSE 2009) — the authors' own companion technique, cited by the paper
— on top of this library's machinery:

* :func:`run_windowed` runs a trace through the ACE model with each
  structure's :class:`~repro.ace.lifetime.StructureLifetime` wrapped in a
  :class:`WindowedPortCounter`, which files the ACE read and write bit
  sums the lifetime adds under the event's fixed-size cycle window;
* each window's bit sums become a :class:`StructurePorts` table of
  bit-weighted pAVFs (Bit Field Analysis, paper Section 5.1), the same
  weighting as the whole run's ports, so the windows of a run add up to
  its whole-run ports;
* plugging each table into SART's closed-form equations yields a
  *sequential-AVF time series* without re-walking anything — windowed
  pAVFs compose with Section 5.2's closed forms for free.
"""

from __future__ import annotations

from repro.ace.lifetime import StructureAvf, StructureLifetime
from repro.core.graphmodel import StructurePorts
from repro.errors import AceError
from repro.perfmodel.pipeline import Pipeline, PipelineConfig
from repro.perfmodel.trace import Trace


class WindowedPortCounter:
    """One structure's ACE port traffic per fixed-size cycle window.

    Passes every event on to the lifetime it wraps, and files the read
    and write bit sums the lifetime adds for that event under the
    event's window. Port counts and entry width come from the lifetime.
    """

    def __init__(self, lifetime: StructureLifetime, window: int):
        if window < 1:
            raise AceError("window must be >= 1 cycle")
        self.lifetime = lifetime
        self.window = window
        self._read_bits: dict[int, float] = {}
        self._write_bits: dict[int, float] = {}

    def write(self, entry: int, cycle: int, ace: bool, ace_bits: int | None = None) -> None:
        stats = self.lifetime.stats
        before = stats.ace_write_bitsum
        self.lifetime.write(entry, cycle, ace, ace_bits)
        self._file(self._write_bits, cycle, stats.ace_write_bitsum - before)

    def read(self, entry: int, cycle: int, ace: bool) -> None:
        stats = self.lifetime.stats
        before = stats.ace_read_bitsum
        self.lifetime.read(entry, cycle, ace)
        self._file(self._read_bits, cycle, stats.ace_read_bitsum - before)

    def release(self, entry: int, cycle: int, consumed: bool) -> None:
        self.lifetime.release(entry, cycle, consumed)  # no port traffic

    def _file(self, sums: dict[int, float], cycle: int, bits: float) -> None:
        if bits:
            w = cycle // self.window
            sums[w] = sums.get(w, 0.0) + bits

    def window_ports(self, total_cycles: int) -> list[StructurePorts]:
        """Bit-weighted ports of every window, empty windows included.

        The final partial window is normalized by its actual length so a
        short tail does not read as artificially calm.
        """
        stats = self.lifetime.stats
        n_windows = max(1, -(-total_cycles // self.window))
        out = []
        for w in range(n_windows):
            span = min(self.window, total_cycles - w * self.window) or self.window
            bit_cycles = span * stats.bits_per_entry
            out.append(StructurePorts(
                name=stats.name,
                pavf_r=min(1.0, self._read_bits.get(w, 0.0) / (bit_cycles * stats.nread)),
                pavf_w=min(1.0, self._write_bits.get(w, 0.0) / (bit_cycles * stats.nwrite)),
                avf=None,
            ))
        return out


def run_windowed(
    trace: Trace, window: int, config: PipelineConfig | None = None
) -> tuple[dict[str, StructureAvf], list[dict[str, StructurePorts]]]:
    """Run an ACE-marked *trace* through the ACE model in *window*-cycle
    windows.

    Returns the whole run's structure counters, equal to
    :func:`~repro.perfmodel.machine.run_workload`'s, and one
    :class:`StructurePorts` table per window, keyed by structure name.
    """
    pipeline = Pipeline(trace, config or PipelineConfig())
    counters = []
    for structure in pipeline.structures:
        # The counter takes the lifetime's place: it receives the same
        # events and passes each one on.
        structure.lifetime = WindowedPortCounter(structure.lifetime, window)
        counters.append(structure.lifetime)
    cycles = pipeline.run().cycles
    structures = {c.lifetime.stats.name: c.lifetime.finish(cycles) for c in counters}
    per_structure = [c.window_ports(cycles) for c in counters]
    tables = [{p.name: p for p in ports} for ports in zip(*per_structure)]
    return structures, tables


def quantized_seq_avf(
    closed_form,
    window_tables: list[dict[str, StructurePorts]],
) -> list[float]:
    """Sequential-AVF time series via closed-form plug-in per window."""
    from repro.core.report import average_seq_avf

    return [
        average_seq_avf(closed_form.evaluate(table)) for table in window_tables
    ]
