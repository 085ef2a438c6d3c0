"""In-memory spans around the calls the benchmark makes into each layer.

A :class:`Tracer` records one span per call: name, start, end, parent
span, op id, resident-set size at both ends, and counts the wrapped
function's result carries (nodes, cycles, injections...). Spans stay in
memory and are written as JSONL when the run ends.

:func:`instrument` wraps the layers' public functions for the duration
of one traced op. The pipeline looks each of them up through a module
attribute (``repro.pipeline.runner.stage_plan``,
``repro.pipeline.stages.build_plan``...), so replacing that attribute
with a recording wrapper nests the spans exactly as ``execute`` makes
the calls, without touching the program. Leaving the ``with`` block
restores every original, so untraced ops run the unmodified code.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident-set size of this process in MB."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def rss_growth_mb(self) -> float:
        return self.rss_end_mb - self.rss_start_mb


class Tracer:
    """Collects spans; the open ones form a stack, innermost last."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, *, op: int | None = None, **attrs):
        """Record a span around the ``with`` body; yields its attrs dict."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name, 0.0, parent=parent, op=op, attrs=dict(attrs))
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.rss_start_mb = rss_mb()
        record.start = time.perf_counter()
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            record.rss_end_mb = rss_mb()
            self._stack.pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                doc = asdict(span)
                doc["id"] = index
                handle.write(json.dumps(doc, sort_keys=True) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    out = [span.seconds for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.seconds
    return out


# ----------------------------------------------------------------------
# the traced boundaries
# ----------------------------------------------------------------------

def _design_attrs(artifact) -> dict:
    return {"kind": artifact.kind}


def _plan_attrs(plan) -> dict:
    return {"nodes": plan.n}


def _golden_attrs(golden) -> dict:
    return {"cycles": golden.cycles}


def _sart_attrs(result) -> dict:
    trace = result.trace
    return {
        "nodes": int(result.stats.get("nodes", 0)),
        "iterations": trace.iterations if trace is not None else 0,
        "resolved_fubs": trace.resolved_fubs if trace is not None else 0,
    }


def _sweep_attrs(batch) -> dict:
    return {"points": len(batch.reports)}


def _sfi_attrs(result) -> dict:
    counts = result.counts()
    return {
        "injections": len(result.outcomes),
        "unknown": counts.get("unknown", 0),
        "failed_passes": len(result.failures),
    }


# (module, attribute, span name, result -> counts); for a class method
# the attribute is "Class.method".
BOUNDARIES = (
    ("repro.pipeline.runner", "stage_design", "stage_design", _design_attrs),
    ("repro.pipeline.runner", "stage_golden", "stage_golden", _golden_attrs),
    ("repro.pipeline.runner", "stage_archsim_ports", "stage_archsim_ports", None),
    ("repro.pipeline.runner", "stage_ace_ports", "stage_ace_ports", None),
    ("repro.pipeline.runner", "stage_plan", "stage_plan", None),
    ("repro.pipeline.runner", "stage_sart", "stage_sart", None),
    ("repro.pipeline.runner", "stage_sfi", "stage_sfi", None),
    ("repro.pipeline.stages", "build_plan", "build_plan", _plan_attrs),
    ("repro.pipeline.stages", "run_sart", "run_sart", _sart_attrs),
    ("repro.core.compiled", "SolvePlan.solve_monolithic",
     "solve_monolithic", None),
    ("repro.core.batched", "sweep_batched", "sweep_batched", _sweep_attrs),
    ("repro.sfi", "run_sfi_campaign", "run_sfi_campaign", _sfi_attrs),
)


def _wrap(tracer: Tracer, name: str, fn, describe):
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if describe is not None:
                attrs.update(describe(result))
            return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every boundary in :data:`BOUNDARIES` while the block runs."""
    saved = []
    try:
        for module_name, attr, name, describe in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, _wrap(tracer, name, original, describe))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)
