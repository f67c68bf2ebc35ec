"""Tests for the eXtended Tag Array (Figures 4 and 5)."""

import pytest

from repro.core.hybrid2 import Hybrid2System
from repro.common import popcount
from repro.core.xta import XTA
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
    """Read line 0 of ``sector`` ``times`` times through the step; return
    the sector's slot."""
    for _ in range(times):
        system.access(sector * system.dcmc.sector_bytes, False, 0.0)
    return system.dcmc.xta.probe(sector)


def homed(system, in_near):
    """The first sector whose remap-table home is (not) in NM."""
    remap = system.dcmc.remap
    return next(s for s in range(remap.num_sectors)
                if bool(remap.lookup(s)[0]) == in_near)


def test_entry_defaults_are_invalid(xta):
    """Every way of a new XTA is free: tag -1, no valid or dirty line, no
    frame, nothing linked."""
    assert xta.tags == [-1] * xta.capacity_sectors
    assert not any(xta.valid) and not any(xta.dirty) and not any(xta.counters)
    assert set(xta.nm_frames) == set(xta.fm_frames) == {-1}
    assert xta.allocated_entries() == 0 and xta.slot_of == {}


def test_entry_line_flags():
    """A read line miss (1b) sets the line's valid bit; a write hit sets
    its dirty bit; neither touches another line."""
    system = hybrid2()
    xta = system.dcmc.xta
    sector = homed(system, in_near=False)
    base = sector * system.dcmc.sector_bytes
    line_bytes = system.dcmc.dram_line_bytes
    slot = touch(system, sector)                      # 2b: fills line 0
    system.access(base + 3 * line_bytes, False, 10.0)  # 1b: fills line 3
    system.access(base + 3 * line_bytes, True, 20.0)   # 1a: dirties line 3
    assert xta.valid[slot] == 0b1001 and xta.dirty[slot] == 0b1000
    assert popcount(xta.valid[slot]) == 2


def test_lookup_miss_then_hit(xta):
    assert xta.probe(12) is None
    slot = xta.victim_way(12)
    assert xta.allocate(slot, 12, nm_frame=5, fm_frame=7) == slot
    assert xta.probe(12) == slot and xta.tags[slot] == 12
    # Through the step: the first access misses and allocates, the second
    # hits the same slot; both count as lookups.
    system = hybrid2()
    slot = touch(system, 12)
    assert slot is not None
    stats = system.collect_stats()
    assert "xta.hits" not in stats and stats["xta.misses"] == 1
    assert touch(system, 12) == slot
    stats = system.collect_stats()
    assert stats["xta.hits"] == 1 and stats["xta.misses"] == 1
    assert stats["xta.hit_rate"] == 0.5


def test_allocate_fm_sector_starts_empty(xta):
    slot = xta.allocate(xta.victim_way(3), 3, nm_frame=1, fm_frame=9)
    assert xta.fm_frames[slot] == 9 and xta.nm_frames[slot] == 1
    assert xta.valid[slot] == 0 and xta.dirty[slot] == 0


def test_allocate_nm_sector_marks_all_valid_and_dirty(xta):
    """Paper convention (case 2a): NM-resident sectors show all lines valid
    and dirty and do not use the FM pointer."""
    slot = xta.allocate(xta.victim_way(3), 3, nm_frame=1, fm_frame=-1)
    assert xta.fm_frames[slot] == -1
    assert xta.valid[slot] == xta.dirty[slot] == 0xFF


def test_victim_prefers_invalid_way(xta):
    first = xta.allocate(xta.victim_way(0), 0, 1, 2)
    victim = xta.victim_way(4)      # same set (4 % 4 == 0)
    assert victim != first and victim // xta.ways == first // xta.ways
    assert xta.tags[victim] == -1


def test_victim_is_lru_when_set_full():
    """An XTA hit in the step refreshes the entry's LRU stamp, so the
    victim of a full set is the least recently accessed way."""
    system = hybrid2()
    xta = system.dcmc.xta
    same_set = [way * xta.num_sets for way in range(xta.ways + 1)]
    slots = [touch(system, sector) for sector in same_set[:-1]]
    assert xta.victim_way(same_set[-1]) == slots[0]
    touch(system, same_set[0])                       # refresh the oldest
    assert xta.victim_way(same_set[-1]) == slots[1]


def test_access_counter_only_counts_fm_sectors():
    """Only sectors still homed in FM count accesses (Section 3.7.1); a
    sector homed in NM, initially or after a migration, is linked with no
    FM pointer and its counter stays frozen."""
    system = hybrid2()
    xta = system.dcmc.xta
    fm_slot = touch(system, homed(system, in_near=False), times=3)
    nm_slot = touch(system, homed(system, in_near=True), times=3)
    assert xta.fm_frames[fm_slot] >= 0 and xta.counters[fm_slot] == 2
    assert xta.fm_frames[nm_slot] == -1 and xta.counters[nm_slot] == 0


def test_access_counter_saturates():
    system = hybrid2(access_counter_bits=2)
    assert system.dcmc.xta.counter_max == 3
    slot = touch(system, homed(system, in_near=False), times=10)
    assert system.dcmc.xta.counters[slot] == 3


def test_competing_counters_ignore_saturated_and_victim():
    xta = XTA(num_sets=1, ways=3, lines_per_sector=8, counter_max=3)
    victim = xta.allocate(xta.victim_way(0), 0, 1, 10)
    other = xta.allocate(xta.victim_way(1), 1, 2, 11)
    saturated = xta.allocate(xta.victim_way(2), 2, 3, 12)
    xta.counters[victim] = 1
    xta.counters[other] = 2
    xta.counters[saturated] = 3        # at counter_max -> ignored
    assert xta.competing_counters(victim) == [2]
    xta.clear(other)                   # a free way does not compete
    assert xta.competing_counters(victim) == []


def test_probe_does_not_touch_lru_or_stats():
    system = hybrid2()
    xta = system.dcmc.xta
    slot = touch(system, 0)
    stats_before = system.collect_stats().as_dict()
    stamps_before = list(xta.lru)
    assert xta.probe(0) == slot
    assert xta.probe(99) is None
    assert system.collect_stats().as_dict() == stats_before
    assert xta.lru == stamps_before


def test_clear_resets_entry(xta):
    slot = xta.allocate(xta.victim_way(0), 0, 1, 2)
    xta.valid[slot] = 0b1
    xta.clear(slot)
    assert xta.tags[slot] == -1 and xta.probe(0) is None
    assert xta.valid[slot] == 0 and xta.nm_frames[slot] == -1
    assert xta.allocated_entries() == 0


def test_storage_budget_is_reported():
    # The paper's configuration: 64 MB cache, 2 KB sectors, 16 ways.
    xta = XTA(num_sets=2048, ways=16, lines_per_sector=8, counter_max=511)
    bits = xta.storage_bits()
    assert 0 < bits / 8 / 1024 <= 512, "XTA must fit the 512 KB on-chip budget"


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        XTA(num_sets=0, ways=4, lines_per_sector=8, counter_max=511)
