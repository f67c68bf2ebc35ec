"""Tests for shared value types and address helpers."""

import pytest

from repro.common import (EnergyCounter, MemoryRequest, TrafficCounter,
                          align_down, block_index, block_offset, full_mask,
                          line_index_in_block, lines_per_block, popcount)


def test_align_down():
    assert align_down(0, 64) == 0
    assert align_down(63, 64) == 0
    assert align_down(64, 64) == 64
    assert align_down(2049, 2048) == 2048


def test_block_index_and_offset():
    assert block_index(4096, 2048) == 2
    assert block_offset(4096 + 100, 2048) == 100


def test_line_index_in_block():
    assert line_index_in_block(0, 2048) == 0
    assert line_index_in_block(64, 2048) == 1
    assert line_index_in_block(2048 + 256, 2048, line_size=256) == 1


def test_lines_per_block():
    assert lines_per_block(2048, 64) == 32
    assert lines_per_block(2048, 256) == 8
    with pytest.raises(ValueError):
        lines_per_block(100, 64)


def test_popcount_and_full_mask():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert full_mask(8) == 0xFF
    assert popcount(full_mask(32)) == 32


def test_memory_request_line_address():
    request = MemoryRequest(address=130, is_write=False)
    assert request.line_address == 128


def test_traffic_counter():
    counter = TrafficCounter(read_bytes=64, write_bytes=128)
    assert counter.read_bytes == 64
    assert counter.write_bytes == 128
    assert counter.total_bytes == 192


def test_energy_counter():
    counter = EnergyCounter(rw_pj=100.0, act_pre_pj=50.0)
    assert counter.total_pj == pytest.approx(150.0)
    assert counter.total_mj == pytest.approx(150.0e-9)
