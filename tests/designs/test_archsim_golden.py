"""Golden digest of tinycore's ACE port AVFs.

``tinycore_structure_ports`` replays each program's ACE-marked trace
against tinycore's register file and data memory; its ports drive every
tinycore SART run and the register file's deadline histogram. This test
runs all ten programs at the default CPI estimate, plus ``fib`` at its
gate-level cycle count, and hashes each structure's ``pavf_r``,
``pavf_w`` and ``avf`` by ``repr`` and its deadline summary, so a change
to the lifetime analysis or to archsim's event calls that moves one
value fails it. When a change of results is deliberate, print
:func:`_golden_document` and re-pin the digest.
"""

from __future__ import annotations

import hashlib
import json

from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.programs import all_programs, default_dmem, program

# fib's cycle count on the gate-level core (run_gate_level), the clock
# the pipeline's archsim stage normalizes fib's event rates to.
FIB_GATE_CYCLES = 166

GOLDEN_SHA256 = "e2e3379c97e52ba62358072772e37ff800bafb84e843316951685df53c6bcd57"


def _canon(value):
    """Integers as integers, floats by ``repr``, containers recursively."""
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def _ports_doc(ports) -> dict:
    return {
        name: {
            "pavf_r": repr(p.pavf_r),
            "pavf_w": repr(p.pavf_w),
            "avf": repr(p.avf),
            "deadlines": _canon(p.deadlines),
        }
        for name, p in sorted(ports.items())
    }


def _golden_document() -> dict:
    doc = {}
    for name, words, dmem in all_programs():
        ports, _, _ = tinycore_structure_ports(name, words, dmem or None)
        doc[name] = _ports_doc(ports)
    ports, _, _ = tinycore_structure_ports(
        "fib", program("fib"), default_dmem("fib") or None,
        gate_cycles=FIB_GATE_CYCLES,
    )
    doc["fib@gate"] = _ports_doc(ports)
    return doc


def _digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_archsim_ports_match_golden_digest():
    assert _digest(_golden_document()) == GOLDEN_SHA256
