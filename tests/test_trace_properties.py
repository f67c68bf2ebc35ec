"""Property-based tests (hypothesis) over the whole trace pipeline.

Each property drives randomly generated column data through the full
write → parse → cache → reload chain and asserts bit-identical arrays at
every hop.  Temporary directories are created *inside* the test bodies
(not via the ``tmp_path`` fixture) so hypothesis can rerun each body
many times without tripping its function-scoped-fixture health check.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import Trace
from repro.trace import (content_hash, load_cached, load_trace_info,
                         parse_trace, probe_cache, split_by_core, subsample,
                         write_trace)

#: One trace's worth of random columns: per-record (gap, address, is_write)
#: plus a core id when multi-core.
records = st.lists(
    st.tuples(st.integers(0, 5000),            # instruction gap
              st.integers(0, (1 << 48) - 1),   # physical address
              st.booleans()),                  # is_write
    min_size=1, max_size=60)


def build_trace(rows, core_ids=None):
    gaps = np.asarray([r[0] for r in rows], dtype=np.int64)
    addresses = np.asarray([r[1] for r in rows], dtype=np.int64)
    writes = np.asarray([r[2] for r in rows], dtype=bool)
    return Trace(gaps, addresses, writes, core_ids)


def assert_traces_equal(left, right):
    assert np.array_equal(left.gaps, right.gaps)
    assert np.array_equal(left.addresses, right.addresses)
    assert np.array_equal(left.is_write, right.is_write)
    assert np.array_equal(left.core_ids, right.core_ids)


# ---------------------------------------------------------------------------
# write -> parse round trips, every dialect
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(rows=records, suffix=st.sampled_from(["tsv", "tsv.gz", "csv",
                                             "csv.gz"]))
def test_write_parse_round_trip_is_bit_identical(rows, suffix):
    trace = build_trace(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"t.{suffix}"
        write_trace(trace, path)
        assert_traces_equal(parse_trace(path), trace)


@settings(max_examples=25, deadline=None)
@given(per_core=st.lists(records, min_size=1, max_size=4))
def test_multi_core_csv_round_trip(per_core):
    # Concatenated per-core streams: any record order with per-core
    # monotone seqs is a valid CSV trace, not just round-robin.
    parts = [build_trace(rows, core_ids=np.full(len(rows), core,
                                                dtype=np.int64))
             for core, rows in enumerate(per_core)]
    trace = Trace(np.concatenate([p.gaps for p in parts]),
                  np.concatenate([p.addresses for p in parts]),
                  np.concatenate([p.is_write for p in parts]),
                  np.concatenate([p.core_ids for p in parts]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_trace(trace, path)
        parsed = parse_trace(path)
        assert_traces_equal(parsed, trace)
        for core, part in enumerate(split_by_core(parsed)):
            assert_traces_equal(part, parts[core])


# ---------------------------------------------------------------------------
# cache round trips: miss -> hit -> invalidate
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(rows=records, suffix=st.sampled_from(["tsv", "csv"]))
def test_cache_reload_is_bit_identical(rows, suffix):
    trace = build_trace(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"t.{suffix}"
        write_trace(trace, path)
        first, info1 = load_trace_info(path)
        second, info2 = load_trace_info(path)
        assert not info1.from_cache
        assert info2.from_cache
        assert info1.content_hash == info2.content_hash == content_hash(path)
        assert_traces_equal(first, trace)
        assert_traces_equal(second, trace)


@settings(max_examples=20, deadline=None)
@given(rows=records, extra_gap=st.integers(0, 100),
       extra_addr=st.integers(0, (1 << 40) - 1))
def test_cache_invalidated_by_source_change(rows, extra_gap, extra_addr):
    trace = build_trace(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        write_trace(trace, path)
        load_trace_info(path)
        assert probe_cache(path) is not None
        # Append one record: same prefix, different bytes -> cache miss.
        last_seq = int((trace.gaps + 1).sum()) - 1
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{last_seq + 1 + extra_gap}\t{extra_addr:x}\t0\n")
        assert probe_cache(path) is None
        assert load_cached(path) is None
        grown, info = load_trace_info(path)
        assert not info.from_cache
        assert len(grown) == len(trace) + 1
        assert grown.addresses[-1] == extra_addr
        assert grown.gaps[-1] == extra_gap
        assert_traces_equal(subsample(grown, first=len(trace)), trace)
        # The rewritten cache serves the grown trace bit-identically.
        recached, info = load_trace_info(path)
        assert info.from_cache
        assert_traces_equal(recached, grown)


# ---------------------------------------------------------------------------
# trace surgery invariants
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(rows=records, first=st.integers(1, 80))
def test_subsample_first_is_a_prefix(rows, first):
    trace = build_trace(rows)
    cut = subsample(trace, first=first)
    n = min(first, len(trace))
    assert len(cut) == n
    assert np.array_equal(cut.gaps, trace.gaps[:n])
    assert np.array_equal(cut.addresses, trace.addresses[:n])


@settings(max_examples=40, deadline=None)
@given(rows=records, every=st.integers(1, 7))
def test_subsample_every_preserves_spanned_instructions(rows, every):
    trace = build_trace(rows)
    cut = subsample(trace, every=every)
    assert np.array_equal(cut.addresses, trace.addresses[::every])
    # Instructions spanned through the last kept record are preserved:
    # dropped records fold into the following kept record's gap.
    last_kept = (len(trace) - 1) // every * every
    assert int((cut.gaps + 1).sum()) == \
        int((trace.gaps[:last_kept + 1] + 1).sum())
