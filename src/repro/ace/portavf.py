"""Port-AVF extraction (paper Section 4).

"The pAVF of a bit in a structure's port or interface is the probability
that ACE data will be transmitted to or from the structure through that
bit. For a read port, pAVF_R is calculated by dividing the number of ACE
reads from the structure by the total number of cycles simulated. For a
write port, we divide the number of ACE writes to the structure by the
number of simulated cycles."

:func:`ports_from_analysis` converts the event counters of the
ACE-instrumented performance model
(:func:`repro.perfmodel.machine.run_workload`) into
:class:`~repro.core.graphmodel.StructurePorts`; :func:`average_ports`
aggregates across a workload suite (the paper collected pAVFs over 547
workloads and used the suite-level values), and :func:`suite_ports`
does both for a suite of traces.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from typing import TYPE_CHECKING

from repro.ace.lifetime import StructureAvf, merge_deadline_summaries
from repro.core.graphmodel import StructurePorts
from repro.errors import AceError

if TYPE_CHECKING:  # avoid a circular import at runtime (machine uses ace)
    from repro.perfmodel.machine import PerfResult


def ports_from_analysis(
    structures: Mapping[str, StructureAvf],
) -> dict[str, StructurePorts]:
    """Convert ACE counters to structure port AVFs.

    The port AVFs carry the bit-field refinement (each ACE event weighted
    by the fraction of entry bits that were ACE); the plain event rates
    are ``StructureAvf.pavf_r()``/``pavf_w()``.
    """
    return {
        name: StructurePorts(
            name=name, pavf_r=stats.pavf_r_bitwise(),
            pavf_w=stats.pavf_w_bitwise(), avf=stats.avf(),
            deadlines=stats.deadline_summary(),
        )
        for name, stats in structures.items()
    }


def average_ports(
    port_sets: Iterable[Mapping[str, StructurePorts]],
) -> dict[str, StructurePorts]:
    """Arithmetic mean of port AVFs across workloads.

    Every workload must report the same structure set (they all run on
    the same machine model).
    """
    port_sets = list(port_sets)
    if not port_sets:
        raise AceError("average_ports needs at least one workload result")
    names = set(port_sets[0])
    for ports in port_sets[1:]:
        if set(ports) != names:
            raise AceError("workloads report different structure sets")
    out: dict[str, StructurePorts] = {}
    n = len(port_sets)
    for name in sorted(names):
        r = sum(_scalar(p[name].pavf_r) for p in port_sets) / n
        w = sum(_scalar(p[name].pavf_w) for p in port_sets) / n
        avfs = [p[name].avf for p in port_sets if p[name].avf is not None]
        avf = sum(avfs) / len(avfs) if avfs else None
        # Deadline distributions pool by union, not by averaging.
        summaries = [p[name].deadlines for p in port_sets
                     if p[name].deadlines is not None]
        deadlines = merge_deadline_summaries(summaries) if summaries else None
        out[name] = StructurePorts(name=name, pavf_r=r, pavf_w=w, avf=avf,
                                   deadlines=deadlines)
    return out


def suite_ports(traces) -> "tuple[dict[str, StructurePorts], list[PerfResult]]":
    """Run a workload suite and return suite-average bit-weighted ports
    + per-run data."""
    from repro.perfmodel.machine import run_workload

    results = [run_workload(t) for t in traces]
    averaged = average_ports(ports_from_analysis(r.structures) for r in results)
    return averaged, results


def suite_ports_and_table(traces) -> "tuple[dict[str, StructurePorts], str]":
    """Run a workload suite; return suite-average ports + rendered table.

    The artifact-friendly sibling of :func:`suite_ports`: instead of the
    per-run :class:`PerfResult` list (large, simulator-heavy) it returns
    the rendered Figure-9-style structure table, so the pipeline layer
    can persist everything a warm rerun needs to reproduce the report
    without re-running the ACE model.
    """
    from repro.ace.report import structure_table

    averaged, results = suite_ports(traces)
    return averaged, structure_table(results)


def _scalar(value) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    values = list(value)
    return sum(values) / len(values) if values else 0.0
