"""Tests for the processor substrate: traces and the interval core model."""

import pytest

from repro.cpu.trace import Trace
from repro.params import CoreParams

from engine_oracle import IntervalCore


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------
def test_trace_basic_statistics():
    trace = Trace(gaps=[9, 9], addresses=[0, 64], is_write=[False, True])
    assert len(trace) == 2
    assert trace.instructions == 20
    assert trace.demand_references == 2
    assert trace.write_fraction == pytest.approx(0.5)
    assert trace.footprint_bytes() == 128
    assert trace.mpki() == pytest.approx(100.0)


def test_trace_footprint_granularity():
    trace = Trace([0] * 4, [0, 64, 100, 2048], [False] * 4)
    assert trace.footprint_bytes(2048) == 2 * 2048


def test_empty_trace():
    trace = Trace()
    assert trace.mpki() == 0.0
    assert trace.write_fraction == 0.0


# ---------------------------------------------------------------------------
# interval core (the stepped oracle's)
# ---------------------------------------------------------------------------
def test_execute_advances_at_issue_width():
    core = IntervalCore(CoreParams(issue_width=4))
    core.execute(400)
    assert core.time_cycles == pytest.approx(100.0)
    assert core.instructions == 400


def test_memory_miss_charges_stall():
    core = IntervalCore(CoreParams(frequency_ghz=1.0))
    stall = core.memory_miss(100.0)        # 100 ns at 1 GHz = 100 cycles
    assert stall == pytest.approx(100.0)
    assert core.instructions == 1
    assert core.time_cycles == pytest.approx(100.0)


def test_overlapping_misses_expose_less_latency():
    params = CoreParams(frequency_ghz=1.0, max_outstanding_misses=8)
    serial = IntervalCore(params)
    overlapped = IntervalCore(params)

    # Serial: long compute gaps between misses, no overlap possible.
    for _ in range(4):
        serial.execute(4000)
        serial.memory_miss(100.0)
    # Overlapped: back-to-back misses.
    overlapped.execute(4000 * 4)
    stalls = [overlapped.memory_miss(100.0) for _ in range(4)]
    assert sum(stalls) < 4 * 100.0
    assert overlapped.time_cycles < serial.time_cycles


def test_mshr_limit_blocks_issue():
    params = CoreParams(frequency_ghz=1.0, max_outstanding_misses=2)
    core = IntervalCore(params)
    for _ in range(8):
        core.memory_miss(1000.0)
    # With only 2 MSHRs, the core cannot hide more than 2 misses at a time.
    assert core.time_cycles > 2000.0


def test_time_ns_conversion():
    core = IntervalCore(CoreParams(frequency_ghz=2.0))
    core.execute(8)   # 2 cycles at 2 GHz = 1 ns
    assert core.time_ns == pytest.approx(1.0)
