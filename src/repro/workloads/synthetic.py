"""Synthetic workload generators.

The paper drives its evaluation with SPEC CPU2017 (eight copies per
workload) and the NAS parallel benchmarks; neither the binaries nor their
traces can be redistributed here.  The policies under evaluation, however,
only react to a handful of properties of the post-LLC reference stream:

* memory intensity (LLC misses per kilo-instruction),
* memory footprint relative to the near-memory size,
* spatial locality (how much of a fetched sector/page is actually used),
* temporal reuse (how skewed accesses are towards a hot subset), and
* the read/write mix.

:class:`~repro.workloads.catalog.WorkloadSpec` captures exactly these
knobs and :func:`generate_trace` turns a spec into a deterministic
memory-level trace (the "gap" of each record counts the instructions
between LLC misses).

The generator is region based: the stream repeatedly picks a 4 KB region
(biased towards a hot subset of the footprint, which is what gives caches
and migration their reuse) and then touches ``region_coverage`` of its 64 B
lines sequentially.  Region coverage therefore directly controls how much of
a coarse DRAM-cache line or migrated sector is ever used — the over-fetch
trade-off of Figure 1 — while the hot-set parameters control temporal reuse
and the MPKI controls memory intensity.

Generation is fully vectorized: the region/visit/line expansion is numpy
array arithmetic feeding the :class:`Trace` columns directly, with no
per-record Python loop or record allocation.  The record stream is
bit-identical to the seed per-record generator it replaced, because the
RNG draw order is part of the trace definition: the frozen golden
``tests/data/golden/engine_traces.json`` holds the SHA-256 of every
column the seed generator produced for a set of cases, and
``tests/test_engine_equivalence.py`` recomputes them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..common import LINE_SIZE, align_down
from ..cpu.trace import Trace
from .catalog import WorkloadSpec


def generate_trace(spec: WorkloadSpec, num_references: int, *, scale: int = 256,
                   seed: int = 1, base_address: int = 0, core_id: int = 0,
                   address_limit: int | None = None,
                   footprint_bytes: int | None = None) -> Trace:
    """Generate a deterministic memory-level trace for ``spec``.

    ``base_address`` offsets the whole footprint (used to give each copy of a
    multi-programmed workload its own address range).  ``address_limit``
    optionally clamps the footprint to the flat address space of the memory
    system under test.  ``footprint_bytes`` overrides the spec's scaled
    footprint (used to split a multi-programmed footprint across cores).
    """
    if num_references <= 0:
        return Trace()
    rng = np.random.default_rng(seed * 1_000_003 + core_id * 7919)

    footprint = _clamp(footprint_bytes or spec.scaled_footprint_bytes(scale),
                       spec.region_bytes, base_address, address_limit)
    lines_per_region = spec.lines_per_region()
    num_regions = max(1, footprint // spec.region_bytes)
    lines_per_visit = spec.lines_per_visit()

    hot_regions = max(1, min(int(num_regions * spec.hot_fraction),
                             spec.hot_region_cap))
    # Spread the hot set over the footprint so it is not one contiguous blob.
    hot_stride = max(1, num_regions // hot_regions)

    gap_mean = spec.gap_instructions()
    # Pre-draw randomness in bulk; one entry per region visit is enough.
    # (The draw order and sizes are part of the trace definition: they pin
    # the RNG stream, so the vectorized expansion below reproduces the
    # classic per-record generator bit for bit.)
    max_visits = num_references + 1
    gaps = rng.poisson(gap_mean, size=num_references)
    writes = rng.random(num_references) < spec.write_fraction
    visit_hot = rng.random(max_visits) < spec.hot_access_fraction
    visit_region = rng.integers(0, num_regions, size=max_visits)
    visit_hot_index = rng.integers(0, hot_regions, size=max_visits)
    visit_offset = rng.integers(0, lines_per_region, size=max_visits)

    # Every visit touches ``lines_per_visit`` sequential lines (the last
    # visit is truncated at ``num_references``), so the whole expansion is a
    # repeat/tile over the visit-level draws — no per-record Python loop.
    num_visits = -(-num_references // lines_per_visit)
    if spec.streaming:
        region = (int(visit_region[0]) + 1
                  + np.arange(num_visits, dtype=np.int64)) % num_regions
    else:
        region = np.where(
            visit_hot[:num_visits],
            (visit_hot_index[:num_visits] * hot_stride) % num_regions,
            visit_region[:num_visits])
    start_line = visit_offset[:num_visits]

    line_step = np.tile(np.arange(lines_per_visit, dtype=np.int64),
                        num_visits)[:num_references]
    line = (np.repeat(start_line, lines_per_visit)[:num_references]
            + line_step) % lines_per_region
    addresses = (base_address
                 + np.repeat(region, lines_per_visit)[:num_references]
                 * spec.region_bytes
                 + line * LINE_SIZE)
    return Trace(gaps, addresses, writes, core_id=core_id)


def _clamp(footprint: int, region_bytes: int, base_address: int,
           address_limit: int | None) -> int:
    """``footprint`` cut to the whole regions below ``address_limit``
    that start at ``base_address`` (at least one region)."""
    if address_limit is None:
        return footprint
    available = max(region_bytes, address_limit - base_address)
    return min(footprint, align_down(available, region_bytes) or region_bytes)


def core_footprints(spec: WorkloadSpec, num_cores: int, *, scale: int = 256,
                    address_limit: int | None = None) -> List[Tuple[int, int]]:
    """``(base_address, footprint_bytes)`` of each core's copy in
    :func:`generate_multiprogrammed`.

    The Table 2 footprint describes the whole (eight-copy or
    multi-threaded) workload.  SPEC multi-programmed copies therefore each
    receive a disjoint ``footprint / num_cores`` slice of the address
    space; multi-threaded NAS workloads share one address space, so every
    core touches the same footprint.  ``address_limit`` clamps the whole
    footprint, then each copy's slice.
    """
    region = spec.region_bytes
    footprint = _clamp(spec.scaled_footprint_bytes(scale), region, 0,
                       address_limit)
    shared = spec.suite.upper() == "NAS"
    per_core = footprint if shared else max(
        region, align_down(footprint // max(1, num_cores), region))
    return [(base, _clamp(per_core, region, base, address_limit))
            for base in (0 if shared else core * per_core
                         for core in range(num_cores))]


def generate_multiprogrammed(spec: WorkloadSpec, num_references_per_core: int, *,
                             num_cores: int = 8, scale: int = 256, seed: int = 1,
                             address_limit: int | None = None) -> List[Trace]:
    """Eight-copies-of-the-same-benchmark methodology of the paper: one
    trace per core over its :func:`core_footprints` slice."""
    return [generate_trace(spec, num_references_per_core, scale=scale,
                           seed=seed, base_address=base, core_id=core,
                           footprint_bytes=footprint)
            for core, (base, footprint) in enumerate(core_footprints(
                spec, num_cores, scale=scale, address_limit=address_limit))]


def stream_pattern(num_references: int, *, stride: int = LINE_SIZE,
                   start: int = 0) -> Trace:
    """Pure streaming pattern (useful in unit tests and examples)."""
    addresses = start + np.arange(num_references, dtype=np.int64) * stride
    return Trace(np.full(num_references, 10, dtype=np.int64), addresses,
                 np.zeros(num_references, dtype=bool))


def random_pattern(num_references: int, footprint_bytes: int, *, seed: int = 0,
                   write_fraction: float = 0.3) -> Trace:
    """Uniformly random pattern over ``footprint_bytes`` (tests/examples)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, max(1, footprint_bytes // LINE_SIZE),
                         size=num_references)
    writes = rng.random(num_references) < write_fraction
    return Trace(np.full(num_references, 20, dtype=np.int64),
                 lines * LINE_SIZE, writes)
