"""Tests for the trace-file frontend: parsers, writers, the sidecar
mmap cache, trace surgery, and the malformed-input error matrix.

The format specification lives in ``docs/architecture.md``; these tests
pin every "MUST" in it — in particular that each way a trace can be
malformed raises a structured :class:`TraceParseError` naming the
offending line, never a silent skip or a bare crash.
"""

import gzip
import json

import numpy as np
import pytest

from repro.trace import (CACHE_FORMAT_VERSION, CSV_HEADER, TraceParseError,
                         cache_dir_for, content_hash, detect_dialect,
                         drop_cache, inspect_trace, interleave_traces,
                         is_gzipped, load_cached, load_trace, load_trace_info,
                         parse_trace, per_core_counts, probe_cache,
                         split_by_core, subsample, write_cache, write_csv,
                         write_trace, write_tsv)
from repro.workloads import get_workload
from repro.workloads.synthetic import generate_trace


def make_trace(refs=300, name="mcf", seed=7, core_id=0, base_address=0):
    return generate_trace(get_workload(name), refs, scale=1024, seed=seed,
                          core_id=core_id, base_address=base_address)


def assert_traces_equal(left, right):
    assert np.array_equal(left.gaps, right.gaps)
    assert np.array_equal(left.addresses, right.addresses)
    assert np.array_equal(left.is_write, right.is_write)
    assert np.array_equal(left.core_ids, right.core_ids)


# ---------------------------------------------------------------------------
# dialect detection and round trips
# ---------------------------------------------------------------------------
def test_detect_dialect_by_suffix():
    assert detect_dialect("a/b/trace.tsv") == "tsv"
    assert detect_dialect("trace.tsv.gz") == "tsv"
    assert detect_dialect("trace.out") == "tsv"
    assert detect_dialect("trace.CSV") == "csv"
    assert detect_dialect("trace.csv.gz") == "csv"


def test_gzip_detected_by_magic_not_suffix(tmp_path):
    # A gzipped file with a .tsv suffix must still parse (content wins).
    trace = make_trace()
    path = tmp_path / "sneaky.tsv"
    plain = tmp_path / "plain.tsv"
    write_tsv(trace, plain)
    path.write_bytes(gzip.compress(plain.read_bytes(), mtime=0))
    assert is_gzipped(path) and not is_gzipped(plain)
    assert_traces_equal(parse_trace(path), trace)


@pytest.mark.parametrize("suffix", ["tsv", "tsv.gz"])
def test_tsv_round_trip_is_bit_identical(tmp_path, suffix):
    trace = make_trace()
    path = tmp_path / f"trace.{suffix}"
    write_tsv(trace, path)
    assert_traces_equal(parse_trace(path), trace)


def test_csv_round_trip_preserves_core_ids(tmp_path):
    sources = [make_trace(refs=120, seed=i, base_address=i << 24)
               for i in range(3)]
    trace = interleave_traces(sources)
    path = tmp_path / "multi.csv"
    write_csv(trace, path)
    parsed = parse_trace(path)
    assert_traces_equal(parsed, trace)
    assert per_core_counts(parsed) == {0: 120, 1: 120, 2: 120}


def test_write_trace_dispatches_on_suffix(tmp_path):
    trace = make_trace(refs=50)
    csv_path = tmp_path / "t.csv"
    tsv_path = tmp_path / "t.tsv"
    write_trace(trace, csv_path)
    write_trace(trace, tsv_path)
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER
    assert "\t" in tsv_path.read_text().splitlines()[0]


def test_write_tsv_rejects_multi_core(tmp_path):
    trace = interleave_traces([make_trace(refs=20, seed=s) for s in (1, 2)])
    with pytest.raises(ValueError, match="core column"):
        write_tsv(trace, tmp_path / "nope.tsv")


def test_gzip_writer_is_deterministic(tmp_path):
    trace = make_trace(refs=200)
    a, b = tmp_path / "a.tsv.gz", tmp_path / "b.tsv.gz"
    write_tsv(trace, a)
    write_tsv(trace, b)
    assert a.read_bytes() == b.read_bytes()


def test_parser_accepts_0x_prefix_and_mixed_case_hex(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("0\t0xDEADbeef\t0\n5\tff00\t1\n")
    trace = parse_trace(path)
    assert trace.addresses.tolist() == [0xDEADBEEF, 0xFF00]
    assert trace.gaps.tolist() == [0, 4]
    assert trace.is_write.tolist() == [False, True]


def test_gap_derivation_is_per_core(tmp_path):
    # Cores 0 and 1 each count their own instruction stream.
    path = tmp_path / "t.csv"
    path.write_text(CSV_HEADER + "\n"
                    "0,100,0,0\n"
                    "0,200,0,1\n"
                    "7,108,1,0\n"
                    "3,208,0,1\n")
    trace = parse_trace(path)
    assert trace.gaps.tolist() == [0, 0, 6, 2]
    assert trace.core_ids.tolist() == [0, 1, 0, 1]


# ---------------------------------------------------------------------------
# malformed inputs: every violation is a structured error with a line
# ---------------------------------------------------------------------------
def parse_error(tmp_path, text, name="bad.tsv"):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(path)
    error = excinfo.value
    assert error.path == str(path)
    assert str(path) in str(error) and f":{error.line}:" in str(error)
    return error


def test_truncated_line_names_line_number(tmp_path):
    error = parse_error(tmp_path, "0\t100\t0\n1\t200\n")
    assert error.line == 2 and "3 tab-separated fields" in error.reason


def test_too_many_fields_rejected(tmp_path):
    error = parse_error(tmp_path, "0\t100\t0\textra\n")
    assert error.line == 1


def test_non_hex_address_rejected(tmp_path):
    error = parse_error(tmp_path, "0\t100\t0\n1\tzz9\t0\n")
    assert error.line == 2 and "address" in error.reason


def test_blank_line_rejected(tmp_path):
    error = parse_error(tmp_path, "0\t100\t0\n\n1\t200\t0\n")
    assert error.line == 2 and "blank" in error.reason


def test_comment_line_rejected(tmp_path):
    error = parse_error(tmp_path, "# generated by foo\n0\t100\t0\n")
    assert error.line == 1 and "comment" in error.reason


def test_empty_file_rejected(tmp_path):
    error = parse_error(tmp_path, "")
    assert "empty trace" in error.reason


def test_empty_csv_after_header_rejected(tmp_path):
    error = parse_error(tmp_path, CSV_HEADER + "\n", name="bad.csv")
    assert "empty trace" in error.reason


def test_csv_missing_header_rejected(tmp_path):
    error = parse_error(tmp_path, "0,100,0,0\n", name="bad.csv")
    assert error.line == 1 and "header" in error.reason


def test_bad_is_write_flag_rejected(tmp_path):
    error = parse_error(tmp_path, "0\t100\t2\n")
    assert error.line == 1 and "is_write" in error.reason


def test_negative_sequence_number_rejected(tmp_path):
    error = parse_error(tmp_path, "-1\t100\t0\n")
    assert error.line == 1 and "negative" in error.reason


def test_non_increasing_seq_rejected_with_line(tmp_path):
    error = parse_error(tmp_path, "0\t100\t0\n5\t108\t0\n5\t110\t0\n")
    assert error.line == 3 and "does not increase" in error.reason


def test_non_increasing_seq_csv_accounts_for_header(tmp_path):
    text = (CSV_HEADER + "\n"
            "0,100,0,0\n"
            "9,200,0,1\n"
            "4,108,0,0\n"      # fine: core 0 goes 0 -> 4
            "2,208,0,1\n")     # bad: core 1 goes 9 -> 2 (line 5)
    error = parse_error(tmp_path, text, name="bad.csv")
    assert error.line == 5 and "core 1" in error.reason


def test_oversized_address_rejected(tmp_path):
    error = parse_error(tmp_path, f"0\t{1 << 63:x}\t0\n")
    assert "63 bits" in error.reason


def test_binary_file_rejected(tmp_path):
    path = tmp_path / "bin.tsv"
    path.write_bytes(b"\x00\xff\xfe junk \x80\n")
    with pytest.raises(TraceParseError):
        parse_trace(path)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_trace(tmp_path / "nope.tsv")


def test_trace_parse_error_is_a_value_error():
    assert issubclass(TraceParseError, ValueError)


# ---------------------------------------------------------------------------
# sidecar cache
# ---------------------------------------------------------------------------
def write_source(tmp_path, trace=None, name="t.tsv"):
    trace = trace if trace is not None else make_trace()
    path = tmp_path / name
    write_trace(trace, path)
    return path, trace


def test_cache_miss_then_hit(tmp_path):
    path, trace = write_source(tmp_path)
    first, info1 = load_trace_info(path)
    assert not info1.from_cache
    assert cache_dir_for(path).is_dir()
    second, info2 = load_trace_info(path)
    assert info2.from_cache
    assert info1.content_hash == info2.content_hash == content_hash(path)
    assert_traces_equal(first, trace)
    assert_traces_equal(second, trace)


def test_cache_invalidated_when_source_changes(tmp_path):
    path, _ = write_source(tmp_path)
    load_trace(path)
    assert probe_cache(path) is not None
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("999999\tabc\t0\n")
    assert probe_cache(path) is None
    trace, info = load_trace_info(path)
    assert not info.from_cache
    assert trace.addresses[-1] == 0xABC
    # ... and the rewritten cache is valid again.
    assert load_trace_info(path)[1].from_cache


def test_cache_ignores_version_mismatch(tmp_path):
    path, _ = write_source(tmp_path)
    load_trace(path)
    meta_path = cache_dir_for(path) / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["version"] == CACHE_FORMAT_VERSION
    meta["version"] = CACHE_FORMAT_VERSION + 1
    meta_path.write_text(json.dumps(meta))
    assert probe_cache(path) is None

    # A real version-1 sidecar: the same columns plus is_writeback.npy.
    cache_dir = cache_dir_for(path)
    meta["version"] = 1
    meta_path.write_text(json.dumps(meta))
    np.save(cache_dir / "is_writeback.npy",
            np.zeros(meta["records"], dtype=bool))
    assert probe_cache(path) is None
    trace, info = load_trace_info(path)
    assert not info.from_cache
    assert json.loads(meta_path.read_text())["version"] == CACHE_FORMAT_VERSION
    assert sorted(f.name for f in cache_dir.glob("*.npy")) == [
        "addresses.npy", "core_ids.npy", "gaps.npy", "is_write.npy"]
    assert_traces_equal(load_cached(path), trace)


def test_cache_ignores_missing_column_file(tmp_path):
    path, _ = write_source(tmp_path)
    load_trace(path)
    (cache_dir_for(path) / "addresses.npy").unlink()
    assert probe_cache(path) is None
    assert load_cached(path) is None


def test_cache_ignores_corrupt_meta(tmp_path):
    path, _ = write_source(tmp_path)
    load_trace(path)
    (cache_dir_for(path) / "meta.json").write_text("{not json")
    assert probe_cache(path) is None


def test_write_cache_on_miss_false_leaves_no_sidecar(tmp_path):
    path, trace = write_source(tmp_path)
    loaded, info = load_trace_info(path, write_cache_on_miss=False)
    assert not info.from_cache
    assert not cache_dir_for(path).exists()
    assert_traces_equal(loaded, trace)


def test_drop_cache(tmp_path):
    path, _ = write_source(tmp_path)
    assert not drop_cache(path)
    load_trace(path)
    assert drop_cache(path)
    assert not cache_dir_for(path).exists()


def test_explicit_write_cache_round_trip(tmp_path):
    path, trace = write_source(tmp_path)
    cache_dir = write_cache(path, trace)
    assert cache_dir == cache_dir_for(path)
    cached = load_cached(path)
    assert cached is not None
    assert_traces_equal(cached, trace)


def test_cached_load_is_mmap_backed(tmp_path):
    path, _ = write_source(tmp_path)
    load_trace(path)
    cached = load_cached(path)

    def memmap_backed(array):
        while array is not None:
            if isinstance(array, np.memmap):
                return True
            array = array.base
        return False

    assert memmap_backed(cached.gaps)
    assert memmap_backed(cached.addresses)


# ---------------------------------------------------------------------------
# trace surgery: subsample / interleave / split
# ---------------------------------------------------------------------------
def test_subsample_first(tmp_path):
    trace = make_trace(refs=100)
    cut = subsample(trace, first=30)
    assert len(cut) == 30
    assert np.array_equal(cut.addresses, trace.addresses[:30])
    assert len(subsample(trace, first=10 ** 9)) == 100


def test_subsample_every_preserves_instruction_budget():
    trace = make_trace(refs=99)
    cut = subsample(trace, every=3)
    assert len(cut) == 33
    assert np.array_equal(cut.addresses, trace.addresses[::3])
    # Dropped records fold into the following kept gap, so the kept
    # stream spans the same instruction count up to the dropped tail.
    spanned = int((cut.gaps + 1).sum())
    original = int((trace.gaps[:97] + 1).sum())   # last kept index is 96
    assert spanned == original


def test_subsample_every_is_per_core():
    sources = [make_trace(refs=40, seed=s) for s in (3, 4)]
    cut = subsample(interleave_traces(sources), every=4)
    assert per_core_counts(cut) == {0: 10, 1: 10}


def test_subsample_requires_an_argument():
    with pytest.raises(ValueError):
        subsample(make_trace(refs=10))
    with pytest.raises(ValueError):
        subsample(make_trace(refs=10), first=0)
    with pytest.raises(ValueError):
        subsample(make_trace(refs=10), every=0)


def test_interleave_then_split_round_trips():
    sources = [make_trace(refs=25 + 7 * i, seed=i, base_address=i << 24)
               for i in range(3)]
    merged = interleave_traces(sources)
    assert len(merged) == sum(len(s) for s in sources)
    for core, (source, part) in enumerate(zip(sources,
                                              split_by_core(merged))):
        assert np.array_equal(part.addresses, source.addresses)
        assert np.array_equal(part.gaps, source.gaps)
        assert (part.core_ids == core).all()


def test_interleave_rejects_multi_core_source():
    merged = interleave_traces([make_trace(refs=10, seed=s) for s in (1, 2)])
    with pytest.raises(ValueError, match="multi-core"):
        interleave_traces([merged])
    with pytest.raises(ValueError):
        interleave_traces([])


def test_inspect_payload_shape(tmp_path):
    path, trace = write_source(tmp_path)
    loaded, info = load_trace_info(path)
    payload = inspect_trace(loaded, info)
    assert payload["records"] == len(trace)
    assert payload["instructions"] == trace.instructions
    assert payload["cores"] == {"0": len(trace)}
    assert payload["path"] == str(path)
    assert payload["content_hash"] == content_hash(path)
    assert payload["from_cache"] is False
    assert json.dumps(payload)          # JSON-serialisable as-is


# ---------------------------------------------------------------------------
# the checked-in corpus stays parseable and regenerable
# ---------------------------------------------------------------------------
def test_corpus_files_parse(corpus_dir):
    for name, cores in [("stream8.tsv", 1), ("hotcold.tsv.gz", 1),
                        ("mixed4.csv", 4)]:
        trace = parse_trace(corpus_dir / name)
        assert len(trace) > 0
        assert len(per_core_counts(trace)) == cores


@pytest.fixture
def corpus_dir():
    import pathlib
    path = pathlib.Path(__file__).parent / "data" / "traces"
    assert path.is_dir()
    return path
