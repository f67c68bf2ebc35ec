"""Integration tests: whole designs driven end to end through the simulator,
checking the qualitative relationships the paper's evaluation is built on."""

import pytest

from repro import EVALUATED_DESIGNS, make_config, make_design
from repro.baselines.fm_only import FarMemoryOnly
from repro.core.hybrid2 import Hybrid2System
from repro.core.variants import cache_only, no_remap
from repro.sim import metrics
from repro.sim.simulator import simulate
from repro.workloads import get_workload

# Whole-design end-to-end sweeps: the expensive part of the suite.
# ``-m "not slow"`` deselects these for a quick local run.
pytestmark = pytest.mark.slow

REFERENCES = 6000
SCALE = 512


@pytest.fixture(scope="module")
def config():
    return make_config(nm_gb=1, fm_gb=16, scale=SCALE)


@pytest.fixture(scope="module")
def baseline_mcf(config):
    return simulate(FarMemoryOnly(config), get_workload("mcf"),
                    num_references=REFERENCES, seed=11)


def run(design_name, config, workload="mcf", seed=11):
    system = make_design(design_name, config)
    return simulate(system, get_workload(workload),
                    num_references=REFERENCES, seed=seed)


def test_every_design_runs_on_every_interface(config):
    for name in EVALUATED_DESIGNS:
        result = run(name, config)
        assert result.references > 0
        assert result.cycles > 0
        assert 0.0 <= result.nm_service_ratio <= 1.0


def test_designs_with_near_memory_beat_baseline_on_hot_workload(config, baseline_mcf):
    """mcf has a small, hot footprint: every NM-using design should beat the
    no-NM baseline (the basic premise of Figure 13)."""
    for name in ("HYBRID2", "TAGLESS", "DFC", "CHA"):
        result = run(name, config)
        assert result.speedup_over(baseline_mcf) > 1.0, name


def test_hybrid2_serves_most_requests_from_nm(config):
    result = run("HYBRID2", config)
    assert result.nm_service_ratio > 0.5


def test_hybrid2_offers_more_capacity_than_caches(config):
    hybrid = run("HYBRID2", config)
    cache = run("DFC", config)
    assert hybrid.flat_capacity_bytes > cache.flat_capacity_bytes


def test_tagless_over_fetches_on_sparse_workload(config):
    """deepsjeng: page-grain caching must move far more FM data than the
    baseline (the over-fetch pathology of Figure 13)."""
    baseline = simulate(FarMemoryOnly(config), get_workload("deepsjeng"),
                        num_references=REFERENCES, seed=11)
    tagless = run("TAGLESS", config, workload="deepsjeng")
    assert metrics.normalised_traffic(tagless, baseline, "fm") > 1.5


def test_hybrid2_degrades_less_than_tagless_on_sparse_workload(config):
    baseline = simulate(FarMemoryOnly(config), get_workload("deepsjeng"),
                        num_references=REFERENCES, seed=11)
    tagless = run("TAGLESS", config, workload="deepsjeng")
    hybrid = run("HYBRID2", config, workload="deepsjeng")
    assert (hybrid.speedup_over(baseline) >
            tagless.speedup_over(baseline)), \
        "Hybrid2 must not suffer Tagless-style over-fetch collapse"


def test_no_remap_is_at_least_as_fast_as_full_hybrid2(config):
    full_result = simulate(Hybrid2System(config), get_workload("omnetpp"),
                           num_references=REFERENCES, seed=11)
    ideal_result = simulate(no_remap(config), get_workload("omnetpp"),
                            num_references=REFERENCES, seed=11)
    assert ideal_result.cycles <= full_result.cycles * 1.05


def test_hybrid2_nm_traffic_includes_metadata(config):
    result = simulate(Hybrid2System(config), get_workload("omnetpp"),
                      num_references=REFERENCES, seed=11)
    assert result.stats.get("nm.metadata_bytes") > 0
    assert result.stats.get("nm.metadata_bytes") < result.nm_traffic_bytes


def test_cache_only_variant_gives_capacity_back(config):
    assert (cache_only(config).flat_capacity_bytes ==
            config.far.capacity_bytes)


def test_energy_scales_with_traffic(config, baseline_mcf):
    hybrid = run("HYBRID2", config)
    assert hybrid.energy_pj > 0
    assert baseline_mcf.energy_pj > 0


def test_larger_nm_helps_hybrid2(config):
    small_nm = simulate(Hybrid2System(make_config(nm_gb=1, scale=SCALE)),
                        get_workload("gcc"), num_references=REFERENCES, seed=5)
    large_nm = simulate(Hybrid2System(make_config(nm_gb=4, scale=SCALE)),
                        get_workload("gcc"), num_references=REFERENCES, seed=5)
    assert large_nm.nm_service_ratio >= small_nm.nm_service_ratio * 0.95
