"""ACE lifetime analysis unit tests (Eq 3 semantics) and deadline
accumulator properties (permutation invariance, merge == one-shot,
conservation)."""

import pytest
from hypothesis import given, strategies as st

from repro.ace.lifetime import (
    DeadlineDistribution,
    StructureLifetime,
    merge_deadline_summaries,
)
from repro.errors import AceError


def _lifetime(entries=4, bits=8, **kw):
    return StructureLifetime("s", entries, bits, **kw)


def test_write_read_evict_residency():
    a = _lifetime(entries=1, bits=8)
    a.write(0, cycle=10, ace=True)
    a.read(0, cycle=30, ace=True)
    a.release(0, cycle=50, consumed=True)
    stats = a.finish(100)
    # ACE residency runs write(10) -> last read(30): 20 cycles x 8 bits.
    assert stats.ace_bit_cycles == 20 * 8
    assert stats.avf() == pytest.approx(20 * 8 / (8 * 100))


def test_unread_value_is_unace():
    a = _lifetime(entries=1, bits=8)
    a.write(0, 0, ace=True)
    a.release(0, 40, consumed=False)
    stats = a.finish(100)
    assert stats.ace_bit_cycles == 0
    assert stats.avf() == 0.0


def test_consumed_without_read_counts_full_span():
    # e.g. store buffer drain: release IS the consumption.
    a = _lifetime(entries=1, bits=8)
    a.write(0, 10, ace=True)
    a.release(0, 25, consumed=True)
    stats = a.finish(100)
    assert stats.ace_bit_cycles == 15 * 8


def test_open_segment_counts_as_unknown():
    a = _lifetime(entries=1, bits=8)
    a.write(0, 60, ace=True)
    stats = a.finish(100)
    assert stats.unknown_bit_cycles == 40 * 8
    assert stats.avf() == pytest.approx(40 * 8 / (8 * 100))


def test_unace_write_contributes_nothing():
    a = _lifetime(entries=1, bits=8)
    a.write(0, 0, ace=False)
    a.read(0, 50, ace=False)
    a.release(0, 60, consumed=True)
    stats = a.finish(100)
    assert stats.ace_bit_cycles == 0
    assert stats.ace_reads == 0


def test_bitfield_weighting():
    a = _lifetime(entries=1, bits=10)
    a.write(0, 0, ace=True, ace_bits=3)  # 3 of 10 bits ACE
    a.read(0, 10, ace=True)
    a.release(0, 20, consumed=True)
    stats = a.finish(10)
    assert stats.ace_bit_cycles == 10 * 3
    assert stats.pavf_r_bitwise() == pytest.approx(3 / (10 * 10))
    assert stats.pavf_r() == pytest.approx(1 / 10)


def test_overwrite_closes_previous_segment():
    a = _lifetime(entries=1, bits=4)
    a.write(0, 0, ace=True)
    a.read(0, 5, ace=True)
    a.write(0, 9, ace=True)  # overwrite
    a.read(0, 12, ace=True)
    a.release(0, 20, consumed=True)
    stats = a.finish(20)
    assert stats.ace_bit_cycles == (5 - 0) * 4 + (12 - 9) * 4


def test_port_rates_normalized_by_ports():
    a = _lifetime(entries=4, bits=8, nread=2, nwrite=2)
    for entry in range(4):
        a.write(entry, entry, ace=True)
        a.read(entry, entry + 1, ace=True)
        a.release(entry, entry + 2, consumed=True)
    stats = a.finish(10)
    assert stats.pavf_r() == pytest.approx(4 / (10 * 2))
    assert stats.pavf_w() == pytest.approx(4 / (10 * 2))


def test_event_errors():
    a = _lifetime()
    with pytest.raises(AceError, match="read before write"):
        a.read(0, 0, True)
    with pytest.raises(AceError, match="release before write"):
        a.release(0, 0, True)
    a.finish(1)
    with pytest.raises(AceError, match="twice"):
        a.finish(1)


def test_mean_ace_latency_and_throughput():
    a = _lifetime(entries=2, bits=8)
    a.write(0, 0, ace=True)
    a.read(0, 10, ace=True)
    a.release(0, 10, consumed=True)
    a.write(1, 0, ace=True)
    a.read(1, 30, ace=True)
    a.release(1, 30, consumed=True)
    stats = a.finish(100)
    assert a.mean_ace_latency() == pytest.approx(20.0)
    assert stats.ace_throughput() == pytest.approx(2 / 100)


def test_littles_law_relationship():
    """AVF ~ latency x throughput / bits-normalization (paper Section 4).

    With every write ACE and full-entry widths, ACE bit-cycles equal
    (sum of residencies) x bits, so AVF == mean_latency x throughput / entries.
    """
    a = _lifetime(entries=4, bits=16)
    spans = [(0, 10), (5, 25), (40, 90), (50, 60)]
    for entry, (start, end) in enumerate(spans):
        a.write(entry, start, ace=True)
        a.read(entry, end, ace=True)
        a.release(entry, end, consumed=True)
    cycles = 100
    stats = a.finish(cycles)
    latency = a.mean_ace_latency()
    throughput = stats.ace_throughput()
    little = latency * throughput / stats.entries
    assert stats.avf() == pytest.approx(little)


# ----------------------------------------------------------------------
# error-reporting deadline distribution properties
# ----------------------------------------------------------------------

# One generated lifetime: (start, read offsets, release tail, ace bits,
# consumed-at-release). Each segment gets its own entry, so per-entry
# event order (write < reads < release) holds by construction and only
# the cross-entry interleaving is up for grabs.
SEGMENT = st.tuples(
    st.integers(0, 40),
    st.lists(st.integers(1, 20), max_size=3),
    st.integers(0, 10),
    st.integers(0, 8),
    st.booleans(),
)
SEGMENTS = st.lists(SEGMENT, max_size=8)
CYCLES = 128  # past every generated event cycle


def _events_of(segments):
    """Flatten segments into (cycle, entry, seq, kind, args) events."""
    events = []
    for entry, (start, offsets, tail, ace_bits, consumed) in enumerate(segments):
        seq = 0
        events.append((start, entry, seq, "write", ace_bits))
        cycle = start
        for offset in offsets:
            cycle += offset
            seq += 1
            events.append((cycle, entry, seq, "read", None))
        events.append((cycle + tail, entry, seq + 1, "release", consumed))
    return events


def _feed(events, order_key):
    """Run one interleaving of the event stream through a fresh lifetime.

    *order_key* may reorder events across entries freely but must keep
    each entry's own (cycle, seq) order — the validity constraint a
    structure's event stream obeys.
    """
    a = StructureLifetime(
        "s", entries=max(1, len({e[1] for e in events}) or 1), bits_per_entry=8
    )
    for cycle, entry, _seq, kind, arg in sorted(events, key=order_key):
        if kind == "write":
            a.write(entry, cycle, ace=arg > 0, ace_bits=arg)
        elif kind == "read":
            a.read(entry, cycle, ace=True)
        else:
            a.release(entry, cycle, consumed=arg)
    return a.finish(CYCLES)


@given(SEGMENTS)
def test_deadline_permutation_invariance_within_cycle(segments):
    """Cross-entry event order within a cycle cannot move the histogram."""
    events = _events_of(segments)
    forward = _feed(events, lambda e: (e[0], e[1], e[2]))
    reverse = _feed(events, lambda e: (e[0], -e[1], e[2]))
    assert forward.deadlines.histogram == reverse.deadlines.histogram
    assert forward.deadlines.events == reverse.deadlines.events
    assert forward.ace_bit_cycles == reverse.ace_bit_cycles


@given(SEGMENTS)
def test_deadline_mass_conservation(segments):
    """Histogram mass == ACE bit-cycles and quantiles are monotone."""
    stats = _feed(_events_of(segments), lambda e: (e[0], e[1], e[2]))
    summary = stats.deadline_summary()
    assert summary["mass_cycles"] == pytest.approx(stats.ace_bit_cycles, abs=1e-9)
    assert summary["p50"] <= summary["p95"] <= summary["max"] <= CYCLES
    if summary["events"]:
        assert summary["mean"] <= summary["max"] + 1e-9


@given(SEGMENTS)
def test_deadline_merge_equals_one_shot(segments):
    """Partitioned accumulation + merge reproduces one-shot exactly."""
    events = _events_of(segments)
    one_shot = _feed(events, lambda e: (e[0], e[1], e[2])).deadline_summary()
    parts = []
    for parity in (0, 1):
        subset = [s for i, s in enumerate(segments) if i % 2 == parity]
        parts.append(_feed(_events_of(subset),
                           lambda e: (e[0], e[1], e[2])).deadline_summary())
    merged = merge_deadline_summaries(parts)
    assert merged["histogram"] == one_shot["histogram"]
    assert merged["events"] == one_shot["events"]
    assert merged["mass_cycles"] == pytest.approx(one_shot["mass_cycles"])
    # Conservation survives the merge: pooled mass == pooled ACE cycles.
    assert merged["mass_cycles"] == pytest.approx(merged["ace_bit_cycles"])


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 9)), max_size=12))
def test_deadline_quantiles_cover_the_mass(entries):
    dist = DeadlineDistribution()
    for deadline, weight in entries:
        dist.record(deadline, float(weight))
    assert dist.quantile(0.0) <= dist.quantile(0.5) <= dist.quantile(1.0)
    assert dist.quantile(1.0) == dist.max_deadline()
    assert dist.total_weight() == pytest.approx(sum(w for _, w in entries))
    # Round-trip through the JSON summary is lossless.
    again = DeadlineDistribution.from_summary(dist.to_summary())
    assert again.histogram == dist.histogram and again.events == dist.events


def test_deadline_degenerate_inputs():
    # Zero-ACE structure: no events, zero mass, zero AVF.
    a = StructureLifetime("s", 2, 8)
    a.write(0, 0, ace=False)
    a.read(0, 5, ace=False)
    a.release(0, 9, consumed=True)
    stats = a.finish(50)
    assert stats.deadlines.events == 0
    assert stats.deadline_summary()["mass_cycles"] == 0.0

    # Never-consumed write: architecturally masked, no deadline event.
    b = StructureLifetime("s", 1, 8)
    b.write(0, 0, ace=True)
    b.release(0, 30, consumed=False)
    stats = b.finish(50)
    assert stats.deadlines.events == 0
    assert stats.ace_bit_cycles == 0.0

    # Empty structure: all-zero summary, merge of nothing is empty.
    c = StructureLifetime("s", 1, 8)
    summary = c.finish(10).deadline_summary()
    assert summary["events"] == 0 and summary["max"] == 0
    assert merge_deadline_summaries([])["events"] == 0

    # Same-cycle write+consume: a zero-cycle deadline is a real event.
    d = StructureLifetime("s", 1, 8)
    d.write(0, 7, ace=True)
    d.read(0, 7, ace=True)
    d.release(0, 7, consumed=True)
    stats = d.finish(10)
    assert stats.deadlines.events == 1
    assert stats.deadlines.histogram == {0: 8.0}


# ----------------------------------------------------------------------
# resume/merge under the fault-tolerant runtime (chaos harness)
# ----------------------------------------------------------------------

# A fixed workload for the chaos test: the module-level constant keeps
# the chunk worker picklable and every attempt bit-identical.
_CHAOS_SEGMENTS = [
    (0, [3, 4], 2, 8, True),
    (5, [], 0, 8, True),      # consumed at release without a read
    (9, [10], 1, 0, True),    # zero-ACE
    (12, [1], 0, 5, False),   # never consumed
    (20, [2, 2, 2], 4, 3, True),
    (31, [7], 0, 6, True),
    (40, [], 3, 2, False),
    (44, [1], 1, 1, True),
]
_N_CHUNKS = 4


def _deadline_chunk_worker(item: int) -> dict:
    """One partition's deadline summary, with scripted chaos misbehaviour."""
    import tests.sfi.chaos as chaos_mod

    plan = chaos_mod._PLAN
    if plan is not None:
        attempt = chaos_mod._bump_attempt(plan, item)
        if attempt <= plan.raises.get(item, 0):
            raise ValueError(f"chunk {item} scripted failure "
                             f"(attempt {attempt})")
    a = StructureLifetime("s", len(_CHAOS_SEGMENTS), 8)
    for entry, (start, offsets, tail, ace_bits, consumed) in enumerate(
            _CHAOS_SEGMENTS):
        if entry % _N_CHUNKS != item:
            continue
        a.write(entry, start, ace=ace_bits > 0, ace_bits=ace_bits)
        cycle = start
        for offset in offsets:
            cycle += offset
            a.read(entry, cycle, ace=True)
        a.release(entry, cycle + tail, consumed=consumed)
    return a.finish(CYCLES).deadline_summary()


def test_deadline_chaos_resume_merge_equals_one_shot(tmp_path):
    """Partitioned deadline accumulation through the fault-tolerant
    runtime — with scripted failures, retries, and a checkpoint resume —
    merges to exactly the one-shot distribution."""
    from repro.sfi.runtime import RuntimeOptions, run_passes
    from tests.sfi.chaos import ChaosPlan, chaos_init

    one_shot = _feed(_events_of(_CHAOS_SEGMENTS),
                     lambda e: (e[0], e[1], e[2])).deadline_summary()

    scratch = tmp_path / "chaos"
    scratch.mkdir()
    ck = str(tmp_path / "deadlines.jsonl")
    plan = ChaosPlan(scratch=str(scratch), raises={1: 2})
    report = run_passes(
        _deadline_chunk_worker, chaos_init, plan, list(range(_N_CHUNKS)),
        workers=1, options=RuntimeOptions(max_retries=3, checkpoint=ck),
        fingerprint="deadline-chaos",
    )
    assert not report.failures
    merged = merge_deadline_summaries(report.results)
    assert merged["histogram"] == one_shot["histogram"]
    assert merged["events"] == one_shot["events"]
    assert merged["mass_cycles"] == pytest.approx(one_shot["mass_cycles"])

    # Resume from the checkpoint: every pass loads, none re-executes,
    # and the merged distribution is bit-identical again.
    resumed = run_passes(
        _deadline_chunk_worker, chaos_init,
        ChaosPlan(scratch=str(scratch)), list(range(_N_CHUNKS)),
        workers=1, options=RuntimeOptions(checkpoint=ck, resume=ck),
        fingerprint="deadline-chaos",
    )
    assert resumed.resumed == _N_CHUNKS
    remerged = merge_deadline_summaries(resumed.results)
    assert remerged["histogram"] == merged["histogram"]
    assert remerged["mass_cycles"] == merged["mass_cycles"]
