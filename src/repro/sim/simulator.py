"""Trace-driven simulation of one memory-system design.

:func:`simulate` is the one simulation driver.  It drives *memory-level*
traces (already LLC-filtered, produced by the workload generators or
loaded from trace files) through the interval core model and the memory
system under test, and returns a :class:`~repro.sim.result.RunResult`
with the counters every figure of the evaluation is computed from.
"""

from __future__ import annotations

import functools
from itertools import islice, repeat
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines.base import MemorySystem
from ..cpu.core import miss_columns
from ..cpu.trace import Trace, round_robin_order
from ..workloads.catalog import WorkloadSpec
from ..workloads.synthetic import core_footprints, generate_multiprogrammed
from .result import RunResult


def _collect_result(system: MemorySystem, workload_name: str,
                    references: int, cycles: float,
                    instructions: int) -> RunResult:
    stats = system.collect_stats()
    return RunResult(
        design=system.name,
        workload=workload_name,
        cycles=cycles,
        instructions=instructions,
        references=references,
        nm_service_ratio=system.nm_service_ratio,
        nm_traffic_bytes=stats.get("nm.bytes"),
        fm_traffic_bytes=stats.get("fm.bytes"),
        energy_pj=stats.get("energy_pj"),
        flat_capacity_bytes=system.flat_capacity_bytes,
        stats=stats,
    )


def simulate(system: MemorySystem,
             workload: Union[WorkloadSpec, Trace, Sequence[Trace]],
             num_references: int = 50_000, *, seed: int = 1,
             num_cores: Optional[int] = None,
             warmup_fraction: float = 0.25) -> RunResult:
    """Drive a memory-level trace through ``system``.

    ``workload`` may be a :class:`WorkloadSpec` (a per-core trace is
    generated for each core following the paper's eight-copy methodology), a
    single :class:`Trace`, or one trace per core.

    The first ``warmup_fraction`` of every core's trace warms the structures
    (DRAM caches, XTA, remap state); counters are then reset so the reported
    cycles, traffic and energy describe the measured region only — the usual
    SimPoint-style methodology.

    Cores take one reference each per round-robin pass, in index order.
    Every part of the interval-core model that does not depend on latency
    (instruction counts, the compute interval ``gap / issue_width`` and
    the overlap divisor of each miss, see
    :func:`~repro.cpu.core.miss_columns`) is computed per core in numpy
    before the run, so the loop keeps only each core's time:
    ``now = time + compute``, the design step at ``now``, then
    ``time = now + llc + latency * ghz / overlap``, where ``llc`` is
    ``config.cores.llc_latency_cycles``.  These are the float
    expressions, in the order, that the stepped ``IntervalCore`` of
    ``tests/engine_oracle.py`` evaluates per reference, so the counters
    stay bit-identical to stepping one (the engine tests compare the two
    and pin the counters to frozen goldens).  The loop is one generated
    function per count of design columns (:data:`_DRIVE_SOURCE`): it
    unpacks each reference's column values from one stream of tuples
    and passes them to the step, which reads no index.

    Those latency-independent inputs (the flattened columns and counts,
    not the traces) are kept for the next call, in one entry per process.
    A call whose key matches reuses them without generating or
    flattening: the key is the spec, the per-core reference count, the
    core count, ``config.scale``, ``seed``, ``warmup_fraction`` and
    ``config.cores``, plus ``system.flat_capacity_bytes`` only where it
    cuts the footprint, so designs run back to back over one workload
    generate it once.  A trace-file workload is keyed by its content hash
    and ``num_references``; explicit traces are never kept.  The entry
    is replaced by the next workload, so a process (a long-lived
    ``serve`` included) holds its last run's inputs only, ~40 B per
    reference.

    ``num_references`` below 1 raises :class:`ValueError`.
    """
    if num_references < 1:
        raise ValueError(f"num_references must be positive, got "
                         f"{num_references}")
    cores_wanted = num_cores or system.config.cores.num_cores
    name, n_cores, total_records, warmup_records, schedule = _run_inputs(
        system, workload, num_references, seed, cores_wanted,
        warmup_fraction)
    if not total_records:
        return _collect_result(system, name, 0, 0.0, 0)

    addr_arr, driver_columns, instructions, writes = schedule
    # The design's value columns join the driver's, one stream of tuples.
    columns = list(driver_columns)
    step = system.fast_path(addr_arr, columns)
    drive = _driver(len(columns) - len(driver_columns))
    stream = zip(*columns)
    params = system.config.cores

    # The first ``warmup_records`` references warm the structures, then the
    # measured region runs with counters reset — two drains of one stream
    # instead of a per-reference warmup branch.
    time_cycles = [0.0] * n_cores
    cycles_offset = 0.0
    if warmup_records:
        drive(islice(stream, warmup_records), step, time_cycles, params)
        system.reset_measurement()
        cycles_offset = max(time_cycles)
    drive(stream, step, time_cycles, params)
    # The steps count only what depends on state; the measured region's
    # requests and writes are columns of the schedule.
    system.requests += total_records - warmup_records
    system.write_requests += writes

    return _collect_result(system, name, total_records - warmup_records,
                           max(time_cycles) - cycles_offset, instructions)


#: The latency-independent inputs of the last run of a generated or
#: trace-file workload, as one ``(key, inputs)`` tuple (see
#: :func:`_run_inputs`).  A run rebinds it in one assignment, so a
#: thread reading it never sees a key with another run's inputs.
_last_inputs: Optional[Tuple[tuple, tuple]] = None


def _forget_inputs() -> None:
    """Drop the reused inputs: the next run generates and flattens its
    workload again."""
    global _last_inputs
    _last_inputs = None


def _run_inputs(system: MemorySystem, workload, num_references: int,
                seed: int, cores_wanted: int,
                warmup_fraction: float) -> tuple:
    """``(name, cores, records, warmup records, schedule)`` of a run, where
    ``schedule`` is :func:`_schedule`'s tuple (None for an empty run).

    A generated or trace-file workload reuses the last run's inputs when
    everything they depend on matches; explicit traces are never reused.
    The entry holds one workload; it is dropped before a new one is
    built, so a run never keeps another workload's inputs alive.
    """
    global _last_inputs
    config = system.config
    if isinstance(workload, WorkloadSpec):
        per_core = max(1, num_references // cores_wanted)
        limit = system.flat_capacity_bytes
        # The design's address space matters only where it cuts the
        # footprint, so designs that leave it whole share the entry.
        if core_footprints(workload, cores_wanted, scale=config.scale,
                           address_limit=limit) == core_footprints(
                               workload, cores_wanted, scale=config.scale):
            limit = None
        key = (workload, per_core, cores_wanted, config.scale, seed, limit,
               warmup_fraction, config.cores)
        name = workload.name

        def load():
            return generate_multiprogrammed(
                workload, per_core, num_cores=cores_wanted,
                scale=config.scale, seed=seed, address_limit=limit)
    elif hasattr(workload, "load_traces"):
        # Trace-backed workloads (repro.workloads.tracefile) are named by
        # their content hash: the handle loads its file through the
        # content-hashed mmap cache and splits the stream per core;
        # num_references caps the total record count.
        key = (tuple(sorted(workload.cache_dict().items())), num_references,
               warmup_fraction, config.cores)
        name = workload.name

        def load():
            return workload.load_traces(num_references)
    else:
        key, name = None, "trace"
        explicit = ([workload] if isinstance(workload, Trace)
                    else list(workload))

        def load():
            return explicit
    if key is not None:
        entry = _last_inputs
        if entry is not None and entry[0] == key:
            return entry[1]
        entry = _last_inputs = None
    traces = load()
    total_records = sum(len(t) for t in traces)
    warmup_records = int(total_records * max(0.0, min(0.9, warmup_fraction)))
    inputs = (name, len(traces), total_records,
              warmup_records, _schedule(traces, config.cores, warmup_records)
              if total_records else None)
    if key is not None:
        _last_inputs = (key, inputs)
    return inputs


def _schedule(traces: Sequence[Trace], params,
              warmup_records: int) -> Tuple[np.ndarray, list, int, int]:
    """Flatten the round-robin schedule of ``traces`` with every
    latency-independent column precomputed.

    Returns the int64 address column (what ``system.fast_path``
    vectorizes over), the driver's ``(core, compute, overlap, is_write)``
    columns, and the instructions retired and the writes issued after the
    first ``warmup_records`` references.  ``compute`` is each miss's
    compute interval in cycles, ``gap / issue_width``, and ``overlap`` its
    divisor as a float: both are correctly rounded quotients of exactly
    representable integers, so the driver's arithmetic is unchanged bit
    for bit.  The order is a column interleave when every core has the
    same length, else :func:`~repro.cpu.trace.round_robin_order`.  The
    driver's columns are Python lists, because native ints, floats and
    bools iterate several times faster than numpy scalars in a Python
    loop; the numpy intermediates are dropped on return.
    """
    n_cores = len(traces)
    lengths = [len(t) for t in traces]
    misses = [miss_columns(t.gaps, params) for t in traces]
    if lengths.count(lengths[0]) == n_cores:
        core_arr = np.tile(np.arange(n_cores), lengths[0])

        def flat(cols):
            return np.stack(cols, axis=1).ravel()
    else:
        order = round_robin_order(lengths)
        core_arr = np.repeat(np.arange(n_cores), lengths)[order]

        def flat(cols):
            return np.concatenate(cols)[order]
    warm = np.bincount(core_arr[:warmup_records], minlength=n_cores)
    instructions = sum(int(inst[-1]) - (int(inst[k - 1]) if k else 0)
                       for (inst, _), k in zip(misses, warm) if len(inst))
    is_write = flat([t.is_write for t in traces])
    columns = [repeat(0) if n_cores == 1 else core_arr.tolist(),
               _quotients(np.maximum(flat([t.gaps for t in traces]), 0),
                          params.issue_width),
               _quotients(flat([div for _, div in misses]), 1),
               is_write.tolist()]
    addresses = flat([t.addresses for t in traces])
    addresses.setflags(write=False)
    return (addresses, columns, instructions,
            int(np.count_nonzero(is_write[warmup_records:])))


def _quotients(values: np.ndarray, divisor: int) -> list:
    """``[v / divisor for v in values]`` as a list that holds one float
    object per distinct value: the columns take few values, and a float
    per reference would keep ~24 B more per reference alive."""
    values = values.tolist()
    quotient = {value: value / divisor for value in set(values)}
    # In place: a list grown by appends, as ``list(map(...))`` builds
    # one, left ~0.5 MB more peak RSS behind at 60k references.
    for k, value in enumerate(values):
        values[k] = quotient[value]
    return values


#: The reference loop of :func:`simulate`, as source: ``{values}`` names
#: the design's value columns, which each tuple of the stream carries
#: after the driver's ``(core, compute, overlap, is_write)`` and the step
#: takes before ``is_write`` and ``now_ns``.  Each core's time advances
#: by its compute interval, the LLC latency and its exposed memory stall
#: (``IntervalCore.execute`` / ``IntervalCore.memory_miss`` of
#: ``tests/engine_oracle.py``, with everything latency-independent
#: precomputed).
_DRIVE_SOURCE = """\
def drive(stream, step, time_cycles, params):
    llc_cycles = float(params.llc_latency_cycles)
    cycle_ns = params.cycle_ns
    ghz = params.frequency_ghz
    for idx, compute, div, is_write{values} in stream:
        now = time_cycles[idx] + compute
        latency_ns = step({arguments}is_write, now * cycle_ns)
        time_cycles[idx] = now + llc_cycles + latency_ns * ghz / div
"""


@functools.lru_cache(maxsize=None)
def _driver(width: int) -> Callable[..., None]:
    """``drive(stream, step, time_cycles, params)`` of
    :data:`_DRIVE_SOURCE` for ``width`` value columns, compiled once per
    process and width: the loop unpacks each value into a local and
    passes it on, with no index into the columns."""
    names = [f"v{k}" for k in range(width)]
    source = _DRIVE_SOURCE.format(
        values="".join(f", {name}" for name in names),
        arguments="".join(f"{name}, " for name in names))
    scope: Dict[str, Any] = {}
    exec(compile(source, f"<driver, {width} value columns>", "exec"), scope)
    return scope["drive"]
