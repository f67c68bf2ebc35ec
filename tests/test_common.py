"""Tests for shared value types and address helpers."""

from repro.common import (LINE_SIZE, MemoryRequest, align_down, full_mask,
                          popcount)
from repro.memory.controller import MemoryController
from repro.params import hbm2_params


def test_align_down():
    assert align_down(0, 64) == 0
    assert align_down(63, 64) == 0
    assert align_down(64, 64) == 64
    assert align_down(2049, 2048) == 2048


def test_popcount_and_full_mask():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert full_mask(8) == 0xFF
    assert popcount(full_mask(32)) == 32


def test_memory_request_line_address():
    request = MemoryRequest(address=130, is_write=False)
    assert request.line_address == 128


def test_traffic_counter():
    """A memory's byte counters, derived from its line counts."""
    controller = MemoryController(hbm2_params(1 << 27))
    controller.access(0, False, 0.0)
    controller.access(64, True, 10.0)
    controller.transfer_block(4096, 64, True, 20.0)
    assert (controller.read_bytes, controller.write_bytes) == (64, 128)
    assert controller.total_bytes == 192
    controller.reset_counters()
    assert controller.total_bytes == 0


def test_energy_counter():
    """A memory's energies, derived from its line and activation counts,
    and their total; the bus-busy time spans a counter reset."""
    params = hbm2_params(1 << 27)
    controller = MemoryController(params)
    controller.access(0, False, 0.0)      # row empty: activation + line
    controller.access(0, False, 100.0)    # row hit: line only
    line_pj = params.rw_energy_pj_per_bit * LINE_SIZE * 8
    rw = 0.0 + line_pj + line_pj
    act_pre = 0.0 + params.act_pre_energy_nj * 1000.0
    assert (controller.rw_energy_pj,
            controller.act_pre_energy_pj) == (rw, act_pre)
    assert controller.energy_pj == rw + act_pre
    busy_ns = controller.busy_ns
    controller.reset_counters()
    assert controller.energy_pj == 0.0
    assert controller.busy_ns == busy_ns
