"""Direct unit tests for SimStructure (occupancy, events, errors)."""

import pytest

from repro.errors import AceError
from repro.perfmodel.structures import SimStructure


def _structure(entries=3):
    return SimStructure("s", entries, 8)


def test_alloc_until_full():
    s = _structure()
    entries = [s.alloc(0, True) for _ in range(3)]
    assert None not in entries and len(set(entries)) == 3
    assert s.is_full()
    assert s.alloc(1, True) is None
    s.release(entries[0], 2)
    assert not s.is_full()
    assert s.alloc(3, True) is not None


def test_occupancy_sampling():
    s = _structure()
    s.alloc(0, True)
    s.sample_occupancy()
    s.alloc(1, True)
    s.sample_occupancy()
    assert s.occupancy() == 2
    assert s.mean_occupancy() == pytest.approx(1.5)
    assert _structure().mean_occupancy() == 0.0


def test_errors_on_unallocated():
    s = _structure()
    with pytest.raises(AceError):
        s.read(0, 0, True)
    with pytest.raises(AceError):
        s.release(0, 0)
    with pytest.raises(AceError):
        s.write(0, 0, True)


def test_events_reach_lifetime():
    s = _structure()
    entry = s.alloc(0, True)
    s.read(entry, 4, True)
    s.release(entry, 6, consumed=True)
    stats = s.lifetime.finish(10)
    assert (stats.name, stats.entries, stats.bits_per_entry) == ("s", 3, 8)
    assert stats.total_writes == 1
    assert stats.total_reads == 1
    assert stats.ace_bit_cycles == 4 * 8


def test_silent_alloc_defers_write_event():
    s = _structure()
    entry = s.alloc(0, ace=False, record=False)  # rename-style reservation
    s.write(entry, 5, ace=True)                  # data arrives later
    s.read(entry, 9, ace=True)
    s.release(entry, 9, consumed=True)
    stats = s.lifetime.finish(10)
    assert stats.total_writes == 1               # only the real write counted
    assert stats.ace_bit_cycles == 4 * 8
