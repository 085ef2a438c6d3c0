"""Stable content fingerprints for pipeline artifacts.

Every stage artifact carries a sha256 fingerprint of *everything that
determines its value*: the design configuration (or raw netlist text),
the program/workload inputs, the stage-relevant knobs, and a stage code
version. Two runs that would compute the same artifact produce the same
fingerprint, so the on-disk store (:mod:`repro.pipeline.store`) can hand
back the cached object; any input change — a different program, a new
bigcore scale, a bumped stage implementation — changes the fingerprint
and transparently invalidates the cache.

The encoding is deliberately boring: inputs are canonicalized to a JSON
document (sorted keys, no whitespace) and hashed. Only JSON-safe scalars,
sequences, and mappings are accepted; anything else must be reduced by
the caller first. That keeps fingerprints reproducible across processes
and Python versions — ``hash()`` randomization, ``repr`` drift, and
pickle protocol changes never leak in.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import repro

# Bump a stage's version whenever its implementation changes in a way
# that affects the *content* of the artifact it produces. This is the
# "stage code version" component of every cache key: bumping it orphans
# all previously cached artifacts of that stage (and of downstream
# stages, whose keys chain the upstream fingerprints).
STAGE_VERSIONS: dict[str, int] = {
    "design": 1,
    "golden": 1,
    "ports": 2,  # v2: error-reporting deadline summaries ride on PortEnv
    "ace": 2,    # v2: suite-pooled deadline summaries in the cached suite
    "plan": 7,   # follows repro.core.compiled.PLAN_FORMAT
    "sart": 1,
    "sfi": 1,
    "beam": 1,
    # Logic-derating analysis (combinational masking per flop).
    "derating": 1,
}


def stage_token(stage: str) -> str:
    """The code-version component of *stage*'s cache keys."""
    try:
        version = STAGE_VERSIONS[stage]
    except KeyError:
        raise ValueError(f"unknown pipeline stage {stage!r}; "
                         f"have {sorted(STAGE_VERSIONS)}") from None
    return f"{stage}.v{version}+repro-{repro.__version__}"


def _canonical(value: Any) -> Any:
    """Reduce *value* to a deterministic JSON-serializable form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips exactly and is stable across platforms.
        return f"f:{value!r}"
    if isinstance(value, bytes):
        return f"b:{hashlib.sha256(value).hexdigest()}"
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = sorted(json.dumps(_canonical(v), sort_keys=True) for v in value)
        return {"__set__": items}
    if isinstance(value, dict):
        out = {}
        for key, val in value.items():
            if not isinstance(key, str):
                key = json.dumps(_canonical(key), sort_keys=True)
            out[key] = _canonical(val)
        return out
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r}; reduce it to "
        "JSON-safe scalars/sequences/mappings first"
    )


def fingerprint(*parts: Any) -> str:
    """sha256 hex digest of the canonical encoding of *parts*."""
    doc = json.dumps([_canonical(p) for p in parts],
                     sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def stage_fingerprint(stage: str, *parts: Any) -> str:
    """Fingerprint for one *stage* artifact: code version + inputs."""
    return fingerprint(stage_token(stage), *parts)
