"""Tests for the Hybrid2System memory-system adapter and its ablations."""

import pytest

from repro.core.hybrid2 import Hybrid2System
from repro.core.variants import (BREAKDOWN_VARIANTS, cache_only, full,
                                 migrate_all, migrate_none, no_remap)

# Drives full Hybrid2 systems through thousands of references per test.
# ``-m "not slow"`` deselects these for a quick local run.
pytestmark = pytest.mark.slow


def test_access_returns_outcome(small_config):
    """``access`` returns the latency in ns and counts the request on the
    path it took (here an XTA miss)."""
    system = Hybrid2System(small_config)
    latency = system.access(0, False, 0.0)
    assert isinstance(latency, float) and latency > 0
    assert system.requests == 1
    assert system.dcmc.counters.get("xta.misses") == 1


def test_addresses_wrap_to_flat_capacity(small_config):
    system = Hybrid2System(small_config)
    latency = system.access(system.flat_capacity_bytes + 64, False, 0.0)
    assert latency > 0
    # The wrapped address is line 0 of sector 0: now an XTA hit.
    system.access(0, False, 100.0)
    assert system.collect_stats()["xta.hits"] == 1


def test_collect_stats_contains_design_counters(small_config, drive):
    system = drive(Hybrid2System(small_config))
    stats = system.collect_stats()
    for key in ("requests", "nm.bytes", "fm.bytes", "xta.hits", "xta.misses",
                "policy.migrations", "sectors_in_nm", "energy_pj"):
        assert key in stats
    assert stats["requests"] == system.requests


def test_nm_service_ratio_between_zero_and_one(small_config, drive):
    system = drive(Hybrid2System(small_config))
    assert 0.0 < system.nm_service_ratio <= 1.0


def test_reset_measurement_clears_counters_keeps_state(small_config, drive):
    system = drive(Hybrid2System(small_config))
    allocated_before = system.dcmc.xta.allocated_entries()
    system.reset_measurement()
    assert system.requests == 0
    assert system.collect_stats()["nm.bytes"] == 0
    assert system.dcmc.xta.allocated_entries() == allocated_before


def test_flat_capacity_larger_than_caches(small_config):
    hybrid = Hybrid2System(small_config)
    only_cache = cache_only(small_config)
    assert hybrid.flat_capacity_bytes > only_cache.flat_capacity_bytes
    assert only_cache.flat_capacity_bytes == small_config.far.capacity_bytes


def test_hybrid2_offers_most_of_near_memory():
    """The paper's capacity argument: with 1 GB NM only the 64 MB cache and
    3.5% metadata are withheld (5.9% more memory than caches at 1:16)."""
    from repro.params import make_config

    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    system = Hybrid2System(config)
    extra = system.flat_capacity_bytes - config.far.capacity_bytes
    assert extra / config.far.capacity_bytes > 0.04


# ---------------------------------------------------------------------------
# variants (Figure 14)
# ---------------------------------------------------------------------------
def test_variant_factories_have_expected_names(small_config):
    assert cache_only(small_config).name == "CACHE-ONLY"
    assert migrate_all(small_config).name == "MIGR-ALL"
    assert migrate_none(small_config).name == "MIGR-NONE"
    assert no_remap(small_config).name == "NO-REMAP"
    assert full(small_config).name == "HYBRID2"
    assert list(BREAKDOWN_VARIANTS) == ["CACHE-ONLY", "MIGR-ALL", "MIGR-NONE",
                                        "NO-REMAP", "HYBRID2"]


def test_cache_only_never_migrates(small_config, drive):
    system = drive(cache_only(small_config))
    assert system.collect_stats()["policy.migrations"] == 0


def test_migrate_none_never_migrates(small_config, drive):
    system = drive(migrate_none(small_config))
    assert system.collect_stats()["policy.migrations"] == 0


def test_no_remap_has_no_metadata_traffic(small_config, drive):
    with_meta = drive(full(small_config))
    without_meta = drive(no_remap(small_config))
    assert with_meta.collect_stats()["nm.metadata_bytes"] > 0
    assert without_meta.collect_stats()["nm.metadata_bytes"] == 0


def test_migrate_all_migrates_more_than_policy(small_config, drive):
    aggressive = drive(migrate_all(small_config))
    default = drive(full(small_config))
    assert (aggressive.collect_stats()["policy.migrations"] >=
            default.collect_stats()["policy.migrations"])
