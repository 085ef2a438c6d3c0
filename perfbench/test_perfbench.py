"""Unit tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import random

import pytest

from hostspeed import NOMINAL_S, HostGauge
from opstats import OpLedger, percentile, samples_beyond, tail_level
from run import Checker
from spans import Span, Tracer, self_seconds


# -- tail percentile rule -----------------------------------------------

@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 5000])
@pytest.mark.parametrize("q", [90.0, 95.0, 99.0])
def test_samples_beyond_counts_values_above_the_percentile(n, q):
    values = random.Random(n).sample(range(10 * n), n)
    cut = percentile(values, q)
    assert samples_beyond(n, q) == sum(v > cut for v in values)


def test_tail_level_needs_ten_samples_beyond():
    # p90 of 92 samples leaves 92 - 82 = 10 above it; of 91, only 9.
    assert tail_level(91) is None
    assert tail_level(92) == 90.0
    assert tail_level(181) == 90.0
    assert tail_level(182) == 95.0
    assert tail_level(901) == 95.0
    assert tail_level(902) == 99.0
    for n in range(1, 3000, 7):
        level = tail_level(n)
        if level is not None:
            assert samples_beyond(n, level) >= 10


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- error_rate accounting ----------------------------------------------

def test_ledger_counts_failures_against_attempts():
    ledger = OpLedger()
    assert ledger.error_rate == 0.0
    for error in (None, "POST /jobs -> 429", None, "timeout", None):
        ledger.record(error)
    assert ledger.attempted == 5
    assert ledger.failed == 2
    assert ledger.error_rate == pytest.approx(0.4)
    assert ledger.failures == ["POST /jobs -> 429", "timeout"]


def test_checker_fails_on_mismatch_with_first_op_or_reference():
    check = Checker(reference={"a": [0.5, 0.25]})
    assert check("a", (0.5, 0.25)) is None        # tuples compare as JSON
    assert check("b", {"x": 1}) is None           # no reference for b
    assert check("b", {"x": 1}) is None
    assert "first op" in check("b", {"x": 2})
    corrupted = Checker(reference={"a": [0.5, 0.2500001]})
    assert "reference" in corrupted("a", [0.5, 0.25])


# -- host-speed scaling --------------------------------------------------

def test_gauge_scales_each_segment_by_the_loop_times_at_its_ends():
    gauge = HostGauge()
    # A host at nominal speed, then one twice as slow.
    gauge.refs = [NOMINAL_S, NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S]
    gauge.walls = [1.0, 4.0, 2.0]
    assert gauge.segment == 3
    assert [gauge.scale(i) for i in range(3)] == pytest.approx([1.0, 0.5, 0.4])
    assert gauge.wall == pytest.approx(7.0)
    assert gauge.scaled_wall == pytest.approx(1.0 + 2.0 + 0.8)


def test_gauge_checkpoints_close_segments_outside_the_timed_wall():
    gauge = HostGauge()
    gauge.checkpoint()
    assert (gauge.segment, gauge.walls) == (0, [])
    gauge.checkpoint()
    assert gauge.segment == 1
    assert len(gauge.walls) == 1
    # The loop's own time is not part of the segment it closes.
    assert gauge.walls[0] < gauge.refs[1]
    assert gauge.scale(0) > 0


# -- self time from nested spans ----------------------------------------

def test_self_seconds_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0),
        Span("child", 2.0, 5.0, parent=0),
        Span("grandchild", 3.0, 4.0, parent=1),
        Span("leaf", 8.0, 9.0, parent=0),
    ]
    assert self_seconds(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_tracer_nests_spans_and_inherits_the_op():
    tracer = Tracer()
    with tracer.span("op", op=7):
        with tracer.span("stage") as attrs:
            attrs["nodes"] = 3
    with tracer.span("other"):
        pass
    op, stage, other = tracer.spans
    assert (op.parent, op.op) == (None, 7)
    assert (stage.parent, stage.op, stage.attrs) == (0, 7, {"nodes": 3})
    assert (other.parent, other.op) == (None, None)
    assert op.start <= stage.start <= stage.end <= op.end
    own = self_seconds(tracer.spans)
    assert own[0] == pytest.approx(op.seconds - stage.seconds)
