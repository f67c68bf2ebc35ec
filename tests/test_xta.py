"""Tests for the eXtended Tag Array (Figures 4 and 5)."""

import pytest

from repro.core.hybrid2 import Hybrid2System
from repro.core.xta import XTA, XTAEntry
from repro.params import Hybrid2Params, make_config


@pytest.fixture
def xta():
    return XTA(num_sets=4, ways=2, lines_per_sector=8, counter_max=511)


def hybrid2(**params):
    """A Hybrid2 system at the bench config (8 XTA sets of 16 ways); its
    step does the XTA lookup, the LRU touch and the counter update."""
    return Hybrid2System(make_config(nm_gb=1, fm_gb=16, scale=256,
                                     hybrid2=Hybrid2Params(**params)))


def touch(system, sector, times=1):
    """Read line 0 of ``sector`` ``times`` times through the step."""
    for _ in range(times):
        system.access(sector * system.dcmc.sector_bytes, False, 0.0)
    return system.dcmc.xta.probe(sector)


def homed(system, in_near):
    """The first sector whose remap-table home is (not) in NM."""
    remap = system.dcmc.remap
    return next(s for s in range(remap.num_sectors)
                if remap.lookup(s).in_near == in_near)


def test_entry_defaults_are_invalid():
    entry = XTAEntry()
    assert not entry.allocated
    assert entry.valid_lines() == 0
    assert entry.dirty_lines() == 0


def test_entry_line_flags():
    entry = XTAEntry(tag=1)
    entry.set_valid(3)
    entry.set_dirty(3)
    assert entry.line_valid(3) and entry.line_dirty(3)
    assert not entry.line_valid(2)
    assert entry.valid_lines() == 1


def test_lookup_miss_then_hit(xta):
    assert xta.probe(12) is None
    entry = xta.victim_way(12)
    xta.allocate(entry, 12, nm_frame=5, fm_frame=7)
    assert xta.probe(12) is entry
    # Through the step: the first access misses and allocates, the second
    # hits the same entry; both count as lookups.
    system = hybrid2()
    step_xta = system.dcmc.xta
    entry = touch(system, 12)
    assert entry is not None
    assert step_xta.hits == 0 and step_xta.lookups == 1
    assert touch(system, 12) is entry
    assert step_xta.hits == 1 and step_xta.lookups == 2


def test_allocate_fm_sector_starts_empty(xta):
    entry = xta.allocate(xta.victim_way(3), 3, nm_frame=1, fm_frame=9)
    assert entry.fm_frame == 9
    assert not entry.in_near_memory
    assert entry.valid_mask == 0


def test_allocate_nm_sector_marks_all_valid_and_dirty(xta):
    """Paper convention (case 2a): NM-resident sectors show all lines valid
    and dirty and do not use the FM pointer."""
    entry = xta.allocate(xta.victim_way(3), 3, nm_frame=1, fm_frame=None)
    assert entry.in_near_memory
    assert entry.valid_lines() == 8
    assert entry.dirty_lines() == 8


def test_victim_prefers_invalid_way(xta):
    first = xta.allocate(xta.victim_way(0), 0, 1, 2)
    victim = xta.victim_way(4)      # same set (4 % 4 == 0)
    assert victim is not first
    assert not victim.allocated


def test_victim_is_lru_when_set_full():
    """An XTA hit in the step refreshes the entry's LRU stamp, so the
    victim of a full set is the least recently accessed way."""
    system = hybrid2()
    xta = system.dcmc.xta
    same_set = [way * xta.num_sets for way in range(xta.ways + 1)]
    entries = [touch(system, sector) for sector in same_set[:-1]]
    assert xta.victim_way(same_set[-1]) is entries[0]
    touch(system, same_set[0])                       # refresh the oldest
    assert xta.victim_way(same_set[-1]) is entries[1]


def test_access_counter_only_counts_fm_sectors():
    """Only sectors still homed in FM count accesses (Section 3.7.1); a
    sector homed in NM, initially or after a migration, is linked with no
    FM pointer and its counter stays frozen."""
    system = hybrid2()
    fm_entry = touch(system, homed(system, in_near=False), times=3)
    nm_entry = touch(system, homed(system, in_near=True), times=3)
    assert fm_entry.fm_frame is not None and fm_entry.access_counter == 2
    assert nm_entry.in_near_memory and nm_entry.access_counter == 0


def test_access_counter_saturates():
    system = hybrid2(access_counter_bits=2)
    assert system.dcmc.xta.counter_max == 3
    entry = touch(system, homed(system, in_near=False), times=10)
    assert entry.access_counter == 3


def test_competing_counters_ignore_saturated_and_victim():
    xta = XTA(num_sets=1, ways=3, lines_per_sector=8, counter_max=3)
    victim = xta.allocate(xta.victim_way(0), 0, 1, 10)
    other = xta.allocate(xta.victim_way(1), 1, 2, 11)
    saturated = xta.allocate(xta.victim_way(2), 2, 3, 12)
    other.access_counter = 2
    saturated.access_counter = 3       # at counter_max -> ignored
    counters = xta.competing_counters(0, victim)
    assert counters == [2]


def test_probe_does_not_touch_lru_or_stats(xta):
    entry = xta.allocate(xta.victim_way(0), 0, 1, 2)
    lookups_before = xta.lookups
    stamp_before = entry.lru_stamp
    assert xta.probe(0) is entry
    assert xta.probe(99) is None
    assert xta.lookups == lookups_before
    assert entry.lru_stamp == stamp_before


def test_clear_resets_entry(xta):
    entry = xta.allocate(xta.victim_way(0), 0, 1, 2)
    entry.set_valid(0)
    entry.clear()
    assert not entry.allocated
    assert entry.valid_mask == 0 and entry.nm_frame is None


def test_storage_budget_is_reported():
    # The paper's configuration: 64 MB cache, 2 KB sectors, 16 ways.
    xta = XTA(num_sets=2048, ways=16, lines_per_sector=8, counter_max=511)
    bits = xta.storage_bits()
    assert 0 < bits / 8 / 1024 <= 512, "XTA must fit the 512 KB on-chip budget"


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        XTA(num_sets=0, ways=4, lines_per_sector=8, counter_max=511)
