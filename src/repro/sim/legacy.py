"""Seed (pre-columnar) engine, preserved as the reference implementation.

The columnar-engine refactor rewrote trace generation and the
:func:`~repro.sim.simulator.simulate` fast path for speed with the explicit
contract that every :class:`~repro.sim.simulator.RunResult` counter stays
bit-identical.  This module keeps the seed implementations alive so that
contract stays *checkable*:

* :func:`generate_trace_reference` / :func:`generate_multiprogrammed_reference`
  are the per-record Python-loop generators (one ``TraceRecord`` appended at
  a time);
* :func:`simulate_reference` is the per-record driver loop built on trace
  iterators, :meth:`IntervalCore.execute` / :meth:`IntervalCore.memory_miss`
  method calls and the pass-based ``live.remove`` scheduler.

``tests/test_engine_equivalence.py`` pins the optimized engine against these
functions for every design in the sweep catalog, and
:mod:`repro.sim.perfbench` measures the refs/sec speedup of the optimized
engine over them (the number tracked in ``BENCH_engine.json``).

Nothing here is exported through the package API and nothing else should
call it in production paths — it is deliberately slow.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..baselines.base import MemorySystem
from ..common import LINE_SIZE, align_down
from ..cpu.core import IntervalCore
from ..cpu.trace import Trace, TraceRecord
from ..workloads.synthetic import WorkloadSpec
from .simulator import RunResult, _collect_result


def generate_trace_reference(spec: WorkloadSpec, num_references: int, *,
                             scale: int = 256, seed: int = 1,
                             base_address: int = 0, core_id: int = 0,
                             address_limit: Optional[int] = None,
                             footprint_bytes: Optional[int] = None) -> Trace:
    """Seed per-record generator (the loop the vectorized one replaced)."""
    if num_references <= 0:
        return Trace([])
    rng = np.random.default_rng(seed * 1_000_003 + core_id * 7919)

    footprint = footprint_bytes or spec.scaled_footprint_bytes(scale)
    if address_limit is not None:
        available = max(spec.region_bytes, address_limit - base_address)
        footprint = min(footprint, align_down(available, spec.region_bytes)
                        or spec.region_bytes)
    lines_per_region = spec.lines_per_region()
    num_regions = max(1, footprint // spec.region_bytes)
    lines_per_visit = spec.lines_per_visit()

    hot_regions = max(1, min(int(num_regions * spec.hot_fraction),
                             spec.hot_region_cap))
    hot_stride = max(1, num_regions // hot_regions)

    gap_mean = spec.gap_instructions()
    max_visits = num_references + 1
    gaps = rng.poisson(gap_mean, size=num_references)
    writes = rng.random(num_references) < spec.write_fraction
    visit_hot = rng.random(max_visits) < spec.hot_access_fraction
    visit_region = rng.integers(0, num_regions, size=max_visits)
    visit_hot_index = rng.integers(0, hot_regions, size=max_visits)
    visit_offset = rng.integers(0, lines_per_region, size=max_visits)

    records: List[TraceRecord] = []
    visit = 0
    stream_region = int(visit_region[0])
    while len(records) < num_references:
        if spec.streaming:
            stream_region = (stream_region + 1) % num_regions
            region = stream_region
        elif visit_hot[visit % max_visits]:
            region = (int(visit_hot_index[visit % max_visits])
                      * hot_stride) % num_regions
        else:
            region = int(visit_region[visit % max_visits])
        start_line = int(visit_offset[visit % max_visits])
        visit += 1

        region_base = base_address + region * spec.region_bytes
        for k in range(lines_per_visit):
            if len(records) >= num_references:
                break
            i = len(records)
            line = (start_line + k) % lines_per_region
            records.append(TraceRecord(
                gap_instructions=int(gaps[i]),
                address=region_base + line * LINE_SIZE,
                is_write=bool(writes[i]),
                core_id=core_id,
            ))
    return Trace(records)


def generate_multiprogrammed_reference(
        spec: WorkloadSpec, num_references_per_core: int, *,
        num_cores: int = 8, scale: int = 256, seed: int = 1,
        address_limit: Optional[int] = None) -> List[Trace]:
    """Seed multi-programmed wrapper around the per-record generator."""
    footprint = spec.scaled_footprint_bytes(scale)
    if address_limit is not None:
        footprint = min(footprint, align_down(address_limit, spec.region_bytes)
                        or spec.region_bytes)
    traces = []
    if spec.suite.upper() == "NAS":
        per_core_footprint = footprint
    else:
        per_core_footprint = max(spec.region_bytes,
                                 align_down(footprint // max(1, num_cores),
                                            spec.region_bytes))
    for core in range(num_cores):
        base = 0 if spec.suite.upper() == "NAS" else core * per_core_footprint
        traces.append(generate_trace_reference(
            spec, num_references_per_core, scale=scale, seed=seed,
            base_address=base, core_id=core, address_limit=address_limit,
            footprint_bytes=per_core_footprint))
    return traces


def simulate_reference(system: MemorySystem,
                       workload: Union[WorkloadSpec, Trace, Sequence[Trace]],
                       num_references: int = 50_000, *, seed: int = 1,
                       num_cores: Optional[int] = None,
                       llc_latency_cycles: int = 14,
                       warmup_fraction: float = 0.25) -> RunResult:
    """Seed per-record driver loop (the one the columnar driver replaced)."""
    config = system.config
    cores_wanted = num_cores or config.cores.num_cores

    if isinstance(workload, WorkloadSpec):
        per_core = max(1, num_references // cores_wanted)
        traces = generate_multiprogrammed_reference(
            workload, per_core, num_cores=cores_wanted, scale=config.scale,
            seed=seed, address_limit=system.flat_capacity_bytes)
        name = workload.name
    elif hasattr(workload, "load_traces"):
        # Same trace-backed branch as the fast path, so the equivalence
        # tests can pin trace-driven runs against this seed driver too.
        traces = workload.load_traces(num_references)
        name = workload.name
    elif isinstance(workload, Trace):
        traces = [workload]
        name = "trace"
    else:
        traces = list(workload)
        name = "trace"

    cores = [IntervalCore(config.cores, i) for i in range(len(traces))]
    iterators = [iter(t) for t in traces]
    live = list(range(len(iterators)))
    total_records = sum(len(t) for t in traces)
    warmup_records = int(total_records * max(0.0, min(0.9, warmup_fraction)))
    processed = 0
    references = 0
    cycles_offset = 0.0
    instruction_offset = 0
    measuring = warmup_records == 0
    while live:
        finished = []
        for idx in live:
            try:
                record = next(iterators[idx])
            except StopIteration:
                finished.append(idx)
                continue
            core = cores[idx]
            core.execute(record.gap_instructions)
            latency = system.access(record.address, record.is_write,
                                    core.time_ns)
            core.memory_miss(latency, sram_latency_cycles=llc_latency_cycles)
            processed += 1
            if measuring:
                references += 1
            elif processed >= warmup_records:
                measuring = True
                system.reset_measurement()
                cycles_offset = max(c.time_cycles for c in cores)
                instruction_offset = sum(c.stats.instructions for c in cores)
        for idx in finished:
            live.remove(idx)

    return _collect_result(
        system, name, references,
        max((c.time_cycles for c in cores), default=0.0) - cycles_offset,
        sum(c.stats.instructions for c in cores) - instruction_offset)
