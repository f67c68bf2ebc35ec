"""Tests for shared value types and address helpers."""

import pytest

from repro.common import (LINE_SIZE, MemoryRequest, align_down, block_index,
                          block_offset, full_mask, line_index_in_block,
                          lines_per_block, popcount)
from repro.memory.controller import MemoryController
from repro.params import hbm2_params


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
    """The device's byte counters and the controller totals over them."""
    controller = MemoryController(hbm2_params(1 << 27))
    controller.access(0, False, 0.0)
    controller.access(64, True, 10.0)
    controller.transfer_block(4096, 64, True, 20.0)
    device = controller.device
    assert (device.read_bytes, device.write_bytes) == (64, 128)
    assert device.total_bytes == controller.total_bytes == 192
    assert (controller.read_bytes, controller.write_bytes) == (64, 128)
    controller.reset_counters()
    assert device.total_bytes == controller.total_bytes == 0


def test_energy_counter():
    """The device's energies, derived from its line and activation
    counts, and the controller total over them; the bus-busy time spans
    a counter reset."""
    params = hbm2_params(1 << 27)
    controller = MemoryController(params)
    device = controller.device
    controller.access(0, False, 0.0)      # row empty: activation + line
    controller.access(0, False, 100.0)    # row hit: line only
    line_pj = params.rw_energy_pj_per_bit * LINE_SIZE * 8
    rw = 0.0 + line_pj + line_pj
    act_pre = 0.0 + params.act_pre_energy_nj * 1000.0
    assert (device.rw_energy_pj, device.act_pre_energy_pj) == (rw, act_pre)
    assert device.energy_pj == rw + act_pre == controller.energy_pj
    busy_ns = device.busy_ns
    controller.reset_counters()
    assert controller.energy_pj == device.energy_pj == 0.0
    assert device.busy_ns == busy_ns
