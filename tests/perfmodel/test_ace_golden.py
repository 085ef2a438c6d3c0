"""Golden digest of the ACE model's exact output.

The ACE-instrumented pipeline feeds every bigcore port AVF and every
error-reporting deadline histogram, so a refactor of the pipeline or the
lifetime analysis must not move one counter. This test runs one workload
per suite class under four machine configurations and hashes every
workload's :class:`PipelineStats`, every :class:`StructureAvf` counter,
mean occupancy and ACE latency, every deadline summary and the rendered
``structure_table``.

Integer counters are hashed as integers and floats by ``repr``, which is
the shortest round-tripping form on every supported Python, so the digest
is the same on 3.11 and 3.12. When a change of results is deliberate,
print :func:`_golden_document` and re-pin the digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields

from repro.ace.lifetime import StructureAvf
from repro.ace.report import structure_table
from repro.perfmodel.machine import MachineConfig, run_workload
from repro.perfmodel.structures import SimStructure
from repro.workloads.generator import generate_trace
from repro.workloads.suite import make_suite

# The narrow machine: 2-wide, 8-entry ROB and IQ, and a fetch buffer,
# load queue, store buffer and register file small enough that fetch's
# stall and each of dispatch's stalls fire. The suite writes 24
# architectural registers, so 28 physical ones leave four for renaming.
NARROW = MachineConfig(
    fetch_width=2, dispatch_width=2, issue_width=2, commit_width=2,
    fetch_buffer_entries=4, iq_entries=8, rob_entries=8, phys_regs=28,
    lq_entries=2, sb_entries=2,
)
CONFIGS = {
    "default": MachineConfig(),
    "no_wrong_path": MachineConfig(model_wrong_path=False),
    "no_bitfields": MachineConfig(use_bitfields=False),
    "narrow": NARROW,
}
PER_CLASS = 1
LENGTH = 400

GOLDEN_SHA256 = "11ea416d530267398a815f9a92d2746f43088f6f2504de21a616233918027c38"


def _canon(value):
    """Integers as integers, floats by ``repr``, containers recursively."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def _structure_doc(result, name: str) -> dict:
    stats: StructureAvf = result.structures[name]
    doc = {f.name: _canon(getattr(stats, f.name))
           for f in fields(stats) if f.name != "deadlines"}
    doc["deadlines"] = _canon(stats.deadline_summary())
    doc["mean_occupancy"] = _canon(result.occupancy[name])
    doc["mean_ace_latency"] = _canon(result.lifetimes[name].mean_ace_latency())
    return doc


def _run_config(config) -> list:
    return [run_workload(generate_trace(spec), config)
            for spec in make_suite(per_class=PER_CLASS, length=LENGTH)]


def _golden_document() -> dict:
    doc = {}
    for label, config in CONFIGS.items():
        results = _run_config(config)
        doc[label] = {
            "workloads": {
                r.workload: {
                    "stats": _canon(asdict(r.stats)),
                    "structures": {name: _structure_doc(r, name)
                                   for name in sorted(r.structures)},
                }
                for r in results
            },
            "structure_table": structure_table(results),
        }
    return doc


def _digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_ace_model_output_matches_golden_digest():
    assert _digest(_golden_document()) == GOLDEN_SHA256


def test_narrow_machine_exercises_every_stall(monkeypatch):
    # Fetch and dispatch stall exactly when a structure they ask reports
    # full. The IQ never fills before the ROB: both allocate at dispatch
    # and the IQ frees an entry at issue, before the ROB does at commit.
    full = set()
    is_full = SimStructure.is_full

    def recording(self):
        answer = is_full(self)
        if answer:
            full.add(self.name)
        return answer

    monkeypatch.setattr(SimStructure, "is_full", recording)
    results = _run_config(NARROW)
    assert full == {"fetch_buffer", "rob", "load_queue", "store_buffer",
                    "regfile"}
    assert all(r.stats.fetch_stall_cycles > 0 for r in results)
    assert sum(r.stats.dispatch_stall_cycles for r in results) > 0
