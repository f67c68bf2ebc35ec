"""Tests for the columnar Trace store: cached summary statistics, the
constructor's defaults and validation, and the one round-robin order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import Trace
from repro.trace.frontend import interleave_traces
from repro.workloads.catalog import get_workload
from repro.workloads.synthetic import generate_trace, random_pattern


def test_columns_are_numpy_arrays():
    trace = generate_trace(get_workload("mcf"), 500, seed=1)
    assert isinstance(trace.gaps, np.ndarray)
    assert trace.gaps.dtype == np.int64
    assert trace.addresses.dtype == np.int64
    assert trace.is_write.dtype == bool
    assert len(trace.gaps) == len(trace) == 500


def test_constructor_defaults_and_validation():
    trace = Trace([1, 2], [0, 64], [False, True], core_id=5)
    assert (trace.core_ids == 5).all()
    with pytest.raises(ValueError):
        Trace([1, 2], [0], [False, True])
    with pytest.raises(ValueError):
        Trace([1], [0], [False], core_ids=[0, 1])


def test_summary_statistics_match_plain_python():
    trace = random_pattern(400, 1 << 20, seed=7)
    gaps = trace.gaps.tolist()
    addresses = trace.addresses.tolist()
    writes = trace.is_write.tolist()
    assert trace.instructions == sum(gap + 1 for gap in gaps)
    assert trace.demand_references == len(gaps)
    assert trace.write_fraction == pytest.approx(sum(writes) / len(writes))
    assert trace.footprint_bytes(4096) == len(
        {address // 4096 for address in addresses}) * 4096


def test_summary_statistics_are_cached():
    trace = random_pattern(100, 1 << 16, seed=3)
    assert trace.instructions is trace.instructions  # same cached int object
    first = trace.footprint_bytes(64)
    trace._stat_cache[("footprint", 64)] = -1          # poke the cache
    assert trace.footprint_bytes(64) == -1 != first


def test_empty_trace():
    trace = Trace()
    assert len(trace) == 0
    assert trace.instructions == 0
    assert trace.mpki() == 0.0
    assert trace.write_fraction == 0.0
    assert trace.footprint_bytes() == 0


@given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=6))
@settings(max_examples=100)
def test_interleave_equals_a_plain_round_robin(lengths):
    """One record per live source per pass, in source order, exhausted
    sources dropping out."""
    sources = [Trace(np.arange(n) * 10 + i, (np.arange(n) * 8 + i) * 64,
                     np.arange(n) % (i + 2) == 0) for i, n in enumerate(lengths)]
    expected = []
    live = [(i, list(zip(s.gaps.tolist(), s.addresses.tolist(),
                         s.is_write.tolist()))) for i, s in enumerate(sources)]
    live = [(i, records) for i, records in live if records]
    while live:
        for i, records in live:
            expected.append((records.pop(0), i))
        live = [(i, records) for i, records in live if records]
    merged = interleave_traces(sources)
    assert list(zip(zip(merged.gaps.tolist(), merged.addresses.tolist(),
                        merged.is_write.tolist()),
                    merged.core_ids.tolist())) == expected
