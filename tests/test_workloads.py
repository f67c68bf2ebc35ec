"""Tests for the workload catalog and the synthetic trace generators."""

import pytest

from repro.common import LINE_SIZE
from repro.workloads.catalog import (MPKI_CLASSES, WORKLOADS, all_workload_names,
                                     get_workload, representative_workloads,
                                     workloads_by_class)
from repro.workloads.synthetic import (WorkloadSpec, generate_multiprogrammed,
                                       generate_trace, random_pattern,
                                       stream_pattern)


# ---------------------------------------------------------------------------
# catalog (Table 2)
# ---------------------------------------------------------------------------
def test_catalog_has_thirty_workloads_ten_per_class():
    assert len(WORKLOADS) == 30
    for klass in MPKI_CLASSES:
        assert len(workloads_by_class(klass)) == 10


def test_catalog_matches_table2_spot_values():
    assert get_workload("cg.D").mpki == pytest.approx(90.6)
    assert get_workload("mcf").footprint_gb == pytest.approx(0.1)
    assert get_workload("deepsjeng").footprint_gb == pytest.approx(3.4)
    assert get_workload("dc.B").streaming is True


def test_catalog_classes_ordered_by_mpki():
    highs = [w.mpki for w in workloads_by_class("high")]
    lows = [w.mpki for w in workloads_by_class("low")]
    assert min(highs) > max(lows)


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        get_workload("not-a-benchmark")
    with pytest.raises(ValueError):
        workloads_by_class("extreme")


def test_representative_subset_is_class_balanced():
    subset = representative_workloads(per_class=3)
    assert len(subset) == 9
    assert {w.mpki_class for w in subset} == set(MPKI_CLASSES)


def test_all_workload_names_unique():
    names = all_workload_names()
    assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def test_generate_trace_is_deterministic():
    spec = get_workload("mcf")
    a = generate_trace(spec, 500, scale=256, seed=7)
    b = generate_trace(spec, 500, scale=256, seed=7)
    assert a.addresses.tolist() == b.addresses.tolist()


def test_generate_trace_seed_changes_stream():
    spec = get_workload("mcf")
    a = generate_trace(spec, 500, scale=256, seed=1)
    b = generate_trace(spec, 500, scale=256, seed=2)
    assert a.addresses.tolist() != b.addresses.tolist()


def test_trace_respects_footprint_and_alignment():
    spec = get_workload("mcf")
    limit = 1 << 20
    trace = generate_trace(spec, 1000, scale=256, address_limit=limit)
    assert ((0 <= trace.addresses) & (trace.addresses < limit)).all()
    assert (trace.addresses % LINE_SIZE == 0).all()


def test_trace_gap_tracks_mpki():
    high = generate_trace(get_workload("cg.D"), 2000, scale=256, seed=1)
    low = generate_trace(get_workload("namd"), 2000, scale=256, seed=1)
    assert high.mpki() > low.mpki()


def test_region_coverage_controls_spatial_locality():
    dense = get_workload("lbm")        # coverage ~0.95
    sparse = get_workload("deepsjeng")  # coverage ~0.05
    dense_trace = generate_trace(dense, 2000, scale=256, seed=3)
    sparse_trace = generate_trace(sparse, 2000, scale=256, seed=3)
    # For the same number of references the sparse workload touches far more
    # distinct 4 KB regions.
    assert (sparse_trace.footprint_bytes(4096) >
            2 * dense_trace.footprint_bytes(4096))


def test_streaming_workload_has_little_reuse():
    spec = get_workload("dc.B")
    trace = generate_trace(spec, 4000, scale=256, seed=1)
    lines = (trace.addresses // LINE_SIZE).tolist()
    assert len(set(lines)) > 0.9 * len(lines)


def test_multiprogrammed_spec_copies_are_disjoint():
    spec = get_workload("lbm")     # SPEC: one copy per core
    traces = generate_multiprogrammed(spec, 300, num_cores=4, scale=256, seed=1)
    ranges = [(int(t.addresses.min()), int(t.addresses.max()))
              for t in traces]
    for i in range(len(ranges)):
        for j in range(i + 1, len(ranges)):
            assert ranges[i][1] < ranges[j][0] or ranges[j][1] < ranges[i][0]


def test_multithreaded_nas_shares_address_space():
    spec = get_workload("cg.D")    # NAS: shared address space
    traces = generate_multiprogrammed(spec, 300, num_cores=4, scale=256, seed=1)
    footprints = [set((t.addresses // 4096).tolist()) for t in traces]
    shared = footprints[0].intersection(*footprints[1:])
    assert shared, "NAS threads must overlap in the shared footprint"


def test_spec_footprint_is_split_across_cores():
    spec = get_workload("lbm")
    total = spec.scaled_footprint_bytes(256)
    traces = generate_multiprogrammed(spec, 300, num_cores=8, scale=256, seed=1)
    top = max(int(t.addresses.max()) for t in traces)
    assert top < total + spec.region_bytes


def test_hot_region_cap_bounds_hot_set():
    spec = WorkloadSpec(name="synthetic", suite="SPEC", mpki_class="high",
                        mpki=20.0, footprint_gb=4.0, region_coverage=0.1,
                        hot_fraction=0.5, hot_access_fraction=1.0,
                        hot_region_cap=4)
    trace = generate_trace(spec, 3000, scale=256, seed=1)
    regions = set((trace.addresses // spec.region_bytes).tolist())
    assert len(regions) <= 4


def test_helper_patterns():
    stream = stream_pattern(10)
    assert stream.addresses.tolist() == [i * LINE_SIZE for i in range(10)]
    rand = random_pattern(100, 1 << 16, seed=1)
    assert len(rand) == 100
    assert (rand.addresses < (1 << 16)).all()


def test_zero_references_returns_empty_trace():
    assert len(generate_trace(get_workload("mcf"), 0)) == 0
