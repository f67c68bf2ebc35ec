"""Tests for the DRAM-cache baselines (ideal, Tagless, DFC) and the no-NM
baseline."""

from functools import partial

import pytest

from repro.baselines.dfc import DecoupledFusedCache
from repro.baselines.dram_cache import DramCacheSystem
from repro.baselines.fm_only import FarMemoryOnly
from repro.baselines.ideal_cache import IdealCache
from repro.baselines.tagless import TaglessCache
from repro.sim.simulator import simulate
from repro.workloads import get_workload


@pytest.fixture
def drive(drive):
    return partial(drive, n=1200, seed=4)


# ---------------------------------------------------------------------------
# no-NM baseline
# ---------------------------------------------------------------------------
def test_baseline_never_uses_near_memory(small_config, drive):
    system = drive(FarMemoryOnly(small_config))
    assert system.nm_service_ratio == 0.0
    assert system.collect_stats()["fm.bytes"] > 0
    assert "nm.bytes" not in system.collect_stats()


def test_baseline_capacity_is_far_memory(small_config):
    system = FarMemoryOnly(small_config)
    assert system.flat_capacity_bytes == small_config.far.capacity_bytes


# ---------------------------------------------------------------------------
# generic DRAM cache behaviour
# ---------------------------------------------------------------------------
def test_cache_hits_after_first_touch(small_config):
    system = IdealCache(small_config, line_size=256)
    system.access(0, False, 0.0)
    system.access(64, False, 50.0)
    assert system.cache_hits == 1
    assert system.requests_from_nm == 1


def test_cache_line_size_must_be_multiple_of_64(small_config):
    with pytest.raises(ValueError):
        DramCacheSystem(small_config, line_size=100)


def test_cache_flat_capacity_is_far_memory_only(small_config):
    system = IdealCache(small_config)
    assert system.flat_capacity_bytes == small_config.far.capacity_bytes


def test_larger_lines_fetch_more_data(small_config, drive):
    small_lines = drive(IdealCache(small_config, line_size=64), "deepsjeng")
    big_lines = drive(IdealCache(small_config, line_size=4096), "deepsjeng")
    assert (big_lines.collect_stats()["fm.bytes"] >
            small_lines.collect_stats()["fm.bytes"])


def test_wasted_data_grows_with_line_size(small_config, drive):
    """The Figure 1 trend: bigger lines leave more fetched data unused."""
    small_lines = drive(IdealCache(small_config, line_size=128), "omnetpp")
    big_lines = drive(IdealCache(small_config, line_size=2048), "omnetpp")
    assert (big_lines.wasted_data_fraction() >
            small_lines.wasted_data_fraction())


def test_wasted_data_near_zero_for_64b_lines(small_config, drive):
    system = drive(IdealCache(small_config, line_size=64), "omnetpp")
    assert system.wasted_data_fraction() == pytest.approx(0.0)


def test_dirty_victims_are_written_back(small_config):
    system = IdealCache(small_config, line_size=256, ways=1)
    # Write to two lines that collide in the same (single-way) set.
    system.access(0, True, 0.0)
    collision = system.num_sets * 256
    system.access(collision, False, 50.0)
    assert system.writebacks == 1
    assert system.far.write_bytes > 0


def test_hit_rate_reporting(small_config, drive):
    system = drive(IdealCache(small_config, line_size=256), "mcf")
    stats = system.collect_stats()
    assert 0.0 < stats["cache.hit_rate"] <= 1.0
    assert stats["cache.hits"] + stats["cache.misses"] == system.requests


@pytest.mark.parametrize("factory", [TaglessCache, DecoupledFusedCache])
def test_cache_events_span_the_warmup_but_requests_do_not(small_config,
                                                          factory):
    """``reset_measurement`` zeroes requests, traffic and energy but keeps
    the design's own counters: cache hits and misses count every
    reference, warm-up included, while ``requests`` counts the measured
    region only (a fidelity question recorded in ROADMAP item 1)."""
    system = factory(small_config)
    result = simulate(system, get_workload("omnetpp"), num_references=4000,
                      seed=1, warmup_fraction=0.25)
    stats = result.stats
    assert stats["cache.hits"] + stats["cache.misses"] == 4000
    assert system.requests == result.references == 3000


# ---------------------------------------------------------------------------
# Tagless and DFC specifics
# ---------------------------------------------------------------------------
def test_tagless_uses_page_lines_and_no_tag_traffic(small_config, drive):
    system = TaglessCache(small_config)
    assert system.line_size == 4096
    drive(system, "mcf", n=600)
    assert system.near.metadata_bytes == 0


def test_tagless_is_fully_associative(small_config):
    system = TaglessCache(small_config)
    assert system.num_sets == 1
    assert system.ways == small_config.near.capacity_bytes // 4096


def test_dfc_pays_in_dram_tag_accesses(small_config, drive):
    dfc = drive(DecoupledFusedCache(small_config), "mcf")
    ideal = drive(IdealCache(small_config, line_size=1024), "mcf")
    assert dfc.near.metadata_bytes > 0
    assert ideal.near.metadata_bytes == 0


def test_dfc_default_line_size_is_1kb(small_config):
    assert DecoupledFusedCache(small_config).line_size == 1024
    assert DecoupledFusedCache(small_config).name == "DFC"
    assert DecoupledFusedCache(small_config, line_size=256).name == "DFC-256"


def test_ideal_names_follow_line_size(small_config):
    assert IdealCache(small_config, line_size=512).name == "IDEAL-512"
