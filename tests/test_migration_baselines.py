"""Tests for the migration baselines (MemPod, LGM, Chameleon) and their
shared machinery."""

import dataclasses
from functools import partial

import pytest

from repro.baselines.chameleon import ChameleonGroups
from repro.baselines.lgm import LgmMigration
from repro.baselines.mempod import MeaCounters, MemPod
from repro.baselines.migration_base import (SEGMENT_BYTES,
                                            IntervalMigrationSystem)
from repro.params import Hybrid2Params, make_config


@pytest.fixture
def drive(drive):
    return partial(drive, n=2000, seed=4, step_ns=25.0)


# ---------------------------------------------------------------------------
# remap cache
# ---------------------------------------------------------------------------
def mempod(capacity):
    """A MemPod whose remap cache holds ``capacity`` segments."""
    config = make_config(nm_gb=1, fm_gb=16, scale=1024)
    hybrid2 = Hybrid2Params(dram_cache_bytes=capacity * SEGMENT_BYTES)
    return MemPod(dataclasses.replace(config, hybrid2=hybrid2))


def translate(system, *segments):
    """Read one line of each segment through the step, which probes and
    fills the remap cache; return whether each translation hit it."""
    cache = system.remap_cache
    hits = []
    for segment in segments:
        before = cache.hits, cache.misses
        system.access(segment * system.segment_bytes, False, 0.0)
        hit = cache.hits > before[0]
        assert (cache.hits, cache.misses) == (before[0] + hit,
                                              before[1] + (not hit))
        hits.append(hit)
    return hits


def test_remap_cache_hit_after_miss():
    system = mempod(4)
    assert translate(system, 1, 1) == [False, True]
    assert system.remap_cache.hit_rate == pytest.approx(0.5)


def test_remap_cache_evicts_lru():
    system = mempod(2)
    assert translate(system, 1, 2, 3, 1) == [False] * 4     # 3 evicts 1
    # A hit refreshes the entry: 3 and 1 are cached, 3 is the older.
    assert translate(system, 3, 2, 1) == [True, False, False]


def test_remap_cache_refresh_keeps_entry_hot():
    system = mempod(2)
    translate(system, 1, 2)
    system.remap_cache.refresh(1)
    assert translate(system, 3, 1) == [False, True]     # 3 evicts 2, not 1


# ---------------------------------------------------------------------------
# MEA counters (MemPod)
# ---------------------------------------------------------------------------
def test_mea_tracks_frequent_elements():
    mea = MeaCounters(2)
    for _ in range(5):
        mea.observe(10)
    for segment in (11, 12, 13):
        mea.observe(segment)
    assert 10 in mea.tracked(), "the majority element must survive decrements"


def test_mea_decrement_all_when_full():
    mea = MeaCounters(1)
    mea.observe(1)
    mea.observe(2)             # decrements counter of 1 to zero
    assert mea.tracked() == {}


def test_mea_clear():
    mea = MeaCounters(4)
    mea.observe(1)
    mea.clear()
    assert mea.tracked() == {}


# ---------------------------------------------------------------------------
# shared migration behaviour
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", [MemPod, LgmMigration, ChameleonGroups])
def test_flat_capacity_is_full_nm_plus_fm(small_config, cls):
    system = cls(small_config)
    expected = (small_config.near.capacity_bytes +
                small_config.far.capacity_bytes)
    assert system.flat_capacity_bytes == expected


@pytest.mark.parametrize("cls", [MemPod, LgmMigration, ChameleonGroups])
def test_migration_designs_eventually_migrate(small_config, drive, cls):
    system = drive(cls(small_config), "mcf", n=3000)
    assert system.migrations > 0
    assert system.collect_stats()["segments_in_nm"] >= \
        small_config.near.capacity_bytes // system.segment_bytes * 0


@pytest.mark.parametrize("cls", [MemPod, LgmMigration, ChameleonGroups])
def test_remap_stays_consistent_under_migration(small_config, drive, cls):
    system = drive(cls(small_config), "mcf", n=3000)
    assert system.remap.check_consistency()


@pytest.mark.parametrize("cls", [MemPod, LgmMigration])
def test_interval_designs_count_intervals(small_config, drive, cls):
    system = drive(cls(small_config), "mcf", n=2500, step_ns=50.0)
    assert system.intervals > 0


def test_migration_improves_nm_service_over_time(small_config, drive):
    system = drive(MemPod(small_config), "mcf", n=4000)
    # The initial random placement puts ~1/17th of data in NM; migration must
    # raise the service ratio above that static level.
    assert system.nm_service_ratio > 0.10


def test_mempod_swaps_preserve_segment_count(small_config, drive):
    system = drive(MemPod(small_config), "mcf", n=3000)
    in_near = system.remap.count_in_near()
    assert in_near == small_config.near.capacity_bytes // system.segment_bytes


def test_lgm_reduces_fetch_traffic_with_llc_lines(small_config, drive):
    system = drive(LgmMigration(small_config), "lbm", n=3000)
    assert system.lines_saved >= 0
    stats = system.collect_stats()
    assert stats["lgm.intervals"] == system.intervals


def test_chameleon_cache_mode_serves_hits(small_config, drive):
    system = drive(ChameleonGroups(small_config), "mcf", n=4000)
    stats = system.collect_stats()
    assert stats["chameleon.cache_mode_fills"] > 0
    assert stats["chameleon.cache_mode_hits"] >= 0


def test_chameleon_has_no_remap_metadata_traffic(small_config, drive):
    system = drive(ChameleonGroups(small_config), "mcf", n=1500)
    assert system.near.metadata_bytes == 0


def test_mempod_remap_cache_misses_cost_metadata_traffic(small_config, drive):
    system = drive(MemPod(small_config), "deepsjeng", n=1500)
    assert system.near.metadata_bytes > 0


def test_only_the_interval_designs_keep_interval_state(small_config):
    """MemPod and LGM migrate at interval boundaries; Chameleon swaps on
    its own counters, so it carries no interval, budget or FM count."""
    for design in (MemPod, LgmMigration):
        system = design(small_config)
        assert isinstance(system, IntervalMigrationSystem)
        assert system.interval_ns > 0
    system = ChameleonGroups(small_config)
    assert not isinstance(system, IntervalMigrationSystem)
    for name in ("interval_ns", "_interval_end_ns", "_interval_fm_accesses",
                 "_roll_interval", "migration_budget_swaps"):
        assert not hasattr(system, name)


def test_migration_budget_scales_with_demand(small_config):
    system = MemPod(small_config)
    assert system.migration_budget_swaps() == 1
    system._interval_fm_accesses = 10_000
    assert system.migration_budget_swaps() > 10
