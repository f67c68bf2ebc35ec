"""Tests for the system configuration (Table 1) and scaling."""

from dataclasses import replace

import pytest

from repro.common import GIB, MIB
from repro.params import (CoreParams, Hybrid2Params, ddr4_params, hbm2_params,
                          make_config)


def test_default_config_preserves_ratio():
    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    assert config.near.capacity_bytes == GIB // 256
    assert config.far.capacity_bytes == 16 * GIB // 256
    assert config.nm_to_fm_ratio == pytest.approx(1 / 16)


@pytest.mark.parametrize("nm_gb,expected_ratio", [(1, 16), (2, 8), (4, 4)])
def test_paper_nm_sizes(nm_gb, expected_ratio):
    config = make_config(nm_gb=nm_gb, scale=256)
    assert round(1 / config.nm_to_fm_ratio) == expected_ratio


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        make_config(scale=0)


def peak_bandwidth_gbps(params):
    """Aggregate peak bandwidth in GB/s (DDR: two transfers per cycle)."""
    bytes_per_cycle = params.channels * (params.bus_bits / 8) * 2
    return bytes_per_cycle * params.clock_mhz * 1e6 / 1e9


def test_hbm_has_higher_bandwidth_than_ddr4():
    hbm = hbm2_params(GIB)
    ddr = ddr4_params(16 * GIB)
    # Table 1: 8 x 128-bit at 2 GHz against 2 x 64-bit at 1.6 GHz.
    assert peak_bandwidth_gbps(hbm) == 512.0
    assert peak_bandwidth_gbps(ddr) == 51.2
    assert peak_bandwidth_gbps(hbm) > 4 * peak_bandwidth_gbps(ddr)


def test_table1_timing_parameters():
    hbm = hbm2_params(GIB)
    ddr = ddr4_params(16 * GIB)
    assert (hbm.tcas_cycles, hbm.trcd_cycles, hbm.trp_cycles) == (7, 7, 7)
    assert (ddr.tcas_cycles, ddr.trcd_cycles, ddr.trp_cycles) == (22, 22, 22)
    assert hbm.channels == 8 and hbm.bus_bits == 128
    assert ddr.channels == 2 and ddr.bus_bits == 64


def test_core_params_time_conversion():
    cores = CoreParams(frequency_ghz=3.2)
    assert 3.2 * cores.cycle_ns == pytest.approx(1.0)


def test_hybrid2_params_derived_quantities():
    params = Hybrid2Params(dram_cache_bytes=64 * MIB, sector_bytes=2048,
                           cache_line_bytes=256, associativity=16)
    assert params.lines_per_sector == 8
    assert params.cache_sectors == 32768
    assert params.xta_sets == 2048
    assert params.counter_max == 511


def test_hybrid2_params_scaling_keeps_minimum():
    params = Hybrid2Params(dram_cache_bytes=64 * MIB)
    scaled = params.scaled(10 ** 9)
    assert scaled.dram_cache_bytes >= params.sector_bytes * params.associativity


def test_describe_mentions_all_components():
    config = make_config(scale=256)
    description = config.describe()
    for key in ("cores", "l1", "l2", "l3", "near_memory", "far_memory",
                "nm_fm_ratio", "dram_cache"):
        assert key in description


def test_table1_sram_rows_are_the_papers():
    for scale in (1, 256, 1024):
        description = make_config(scale=scale).describe()
        assert description["l1"] == "64 KB, 4-way, 1 cycle"
        assert description["l2"] == "256 KB, 8-way, 9 cycles"
        assert description["l3"] == "8 MB shared, 16-way, 14 cycles"
    # The L3 latency is the one the driver charges.
    config = make_config()
    slower = replace(config, cores=replace(config.cores,
                                           llc_latency_cycles=20))
    assert slower.describe()["l3"] == "8 MB shared, 16-way, 20 cycles"
