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
    return system.dcmc.xta.slot_of.get(sector)


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
    """The first access misses and links the sector, the second hits the
    same slot; both count as lookups."""
    assert xta.slot_of.get(12) is None
    system = hybrid2()
    slot = touch(system, 12)
    assert slot is not None and system.dcmc.xta.tags[slot] == 12
    stats = system.collect_stats()
    assert "xta.hits" not in stats and stats["xta.misses"] == 1
    assert touch(system, 12) == slot
    stats = system.collect_stats()
    assert stats["xta.hits"] == 1 and stats["xta.misses"] == 1
    assert stats["xta.hit_rate"] == 0.5


def test_allocate_fm_sector_starts_empty():
    """A sector homed in FM (2b) is linked with its FM home, a cache
    frame from the pool, a zero counter and only the demand line valid."""
    system = hybrid2()
    xta = system.dcmc.xta
    sector = homed(system, in_near=False)
    system.access(sector * system.dcmc.sector_bytes
                  + 5 * system.dcmc.dram_line_bytes, False, 0.0)
    slot = xta.slot_of[sector]
    assert xta.fm_frames[slot] == system.dcmc.remap.lookup(sector)[1]
    assert xta.nm_frames[slot] in system.dcmc.frames.cache_owned
    assert xta.counters[slot] == 0
    assert xta.valid[slot] == 1 << 5 and xta.dirty[slot] == 0


def test_allocate_nm_sector_marks_all_valid_and_dirty():
    """Paper convention (case 2a): NM-resident sectors show all lines valid
    and dirty and do not use the FM pointer."""
    system = hybrid2()
    xta = system.dcmc.xta
    sector = homed(system, in_near=True)
    slot = touch(system, sector)
    assert xta.fm_frames[slot] == -1
    assert xta.nm_frames[slot] == system.dcmc.remap.lookup(sector)[1]
    assert xta.valid[slot] == xta.dirty[slot] == 0xFF


def test_victim_prefers_invalid_way():
    """A miss takes a free way of the sector's set while one is left,
    and evicts nothing."""
    system = hybrid2()
    xta = system.dcmc.xta
    first = touch(system, 0)
    victim = touch(system, xta.num_sets)      # same set
    assert victim != first and victim // xta.ways == first // xta.ways
    assert xta.tags[first] == 0
    stats = system.collect_stats()
    assert not any(key.startswith(("evictions", "migrations"))
                   for key in stats.as_dict())


def test_victim_is_lru_when_set_full():
    """An XTA hit in the step refreshes the entry's LRU stamp, so the
    victim of a full set is the least recently accessed way."""
    system = hybrid2()
    xta = system.dcmc.xta
    same_set = [way * xta.num_sets for way in range(xta.ways + 2)]
    slots = [touch(system, sector) for sector in same_set[:xta.ways]]
    assert touch(system, same_set[xta.ways]) == slots[0]
    assert same_set[0] not in xta.slot_of
    touch(system, same_set[1])                       # refresh the oldest
    assert touch(system, same_set[xta.ways + 1]) == slots[2]
    assert same_set[1] in xta.slot_of and same_set[2] not in xta.slot_of


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
    """The migration decision of an FM sector evicted from a full set
    sees its own counter and the counters of the set's other ways, less
    the saturated ones."""
    system = hybrid2(access_counter_bits=2)
    xta = system.dcmc.xta
    decisions = []
    decide = system.dcmc.policy.decide

    def recorded(counter, competitors, valid, dirty, now_ns):
        decisions.append((counter, list(competitors), valid, dirty))
        return decide(counter, competitors, valid, dirty, now_ns)
    system.dcmc.policy.decide = recorded
    remap = system.dcmc.remap
    same_set = [s for s in range(0, remap.num_sectors, xta.num_sets)
                if not remap.lookup(s)[0]][:xta.ways + 1]
    slots = [touch(system, sector) for sector in same_set[:xta.ways]]
    victim, other = slots[:2]
    xta.counters[victim] = 1
    xta.counters[other] = 2
    for slot in slots[2:]:
        xta.counters[slot] = 3            # at counter_max: ignored
    touch(system, same_set[xta.ways])
    assert decisions == [(1, [2], 1, 0)]
    assert xta.tags[victim] == same_set[xta.ways]


def test_probe_does_not_touch_lru_or_stats():
    """The swap allocator's XTA probe (Figure 8) skips a frame whose
    sector is linked, without touching that way's LRU stamp, and steals
    the next one."""
    config = make_config(nm_gb=1, fm_gb=16, scale=1024,
                         hybrid2=Hybrid2Params(dram_cache_bytes=64 * 1024))
    system = Hybrid2System(config, migration_mode="all")
    dcmc = system.dcmc
    xta, frames = dcmc.xta, dcmc.frames
    flat_home = dcmc.remap.sector_at_nm_frame(frames.flat_frames[0])
    fm_homed = [s for s in range(dcmc.num_flat_sectors)
                if not dcmc.remap.lookup(s)[0]][:xta.ways]
    for t, sector in enumerate([flat_home] + fm_homed[:-1] + [flat_home]):
        system.access(sector * dcmc.sector_bytes, False, 10.0 * t)
    frames.pool.clear()                       # the next 2b miss must swap
    frames.fifo_index = frames.carveout_frames     # at ``flat_home``'s frame
    slot = xta.slot_of[flat_home]
    stamp = xta.lru[slot]
    system.access(fm_homed[-1] * dcmc.sector_bytes, False, 1000.0)
    assert dcmc.counters.get("allocation.skipped_in_cache") == 1
    assert dcmc.counters.get("allocation.swaps") == 1
    assert xta.nm_frames[xta.slot_of[fm_homed[-1]]] == frames.flat_frames[1]
    assert xta.slot_of[flat_home] == slot and xta.lru[slot] == stamp
    assert dcmc.remap.lookup(flat_home) == (1, frames.flat_frames[0])


def test_clear_resets_entry():
    """An eviction unlinks the old sector, and the way it frees is
    relinked with none of the old entry's counter, valid or dirty bits."""
    system = hybrid2(access_counter_bits=2)
    xta = system.dcmc.xta
    same_set = [way * xta.num_sets for way in range(xta.ways + 1)]
    slots = [touch(system, sector, times=3) for sector in same_set[:xta.ways]]
    xta.valid[slots[0]] |= 0b110
    xta.dirty[slots[0]] |= 0b110
    assert touch(system, same_set[-1]) == slots[0]
    assert same_set[0] not in xta.slot_of
    assert xta.allocated_entries() == xta.ways
    if xta.fm_frames[slots[0]] >= 0:
        assert xta.valid[slots[0]] == 1 and xta.dirty[slots[0]] == 0
    else:
        assert xta.valid[slots[0]] == xta.dirty[slots[0]] == 0xFF
    assert xta.counters[slots[0]] == 0


def test_storage_budget_is_reported():
    # The paper's configuration: 64 MB cache, 2 KB sectors, 16 ways.
    xta = XTA(num_sets=2048, ways=16, lines_per_sector=8, counter_max=511)
    bits = xta.storage_bits()
    assert 0 < bits / 8 / 1024 <= 512, "XTA must fit the 512 KB on-chip budget"


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        XTA(num_sets=0, ways=4, lines_per_sector=8, counter_max=511)
