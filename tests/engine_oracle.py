"""The stepped oracle the engine tests compare ``simulate()`` against.

:func:`stepped_reference` is :func:`~repro.sim.simulator.simulate` the
slow way: one :class:`~repro.cpu.core.IntervalCore` per trace, stepped
per reference through :meth:`MemorySystem.access` (the design's step
compiled over one-slot columns and fed Python ints) in pass-based
round-robin order, with the counters reset after the warm-up references.
``simulate()`` precomputes everything latency-independent and feeds the
step whole ndarray-derived columns, so agreement on every counter checks
the driver, the schedule and each design's column arithmetic at once.
"""

from repro.cpu.core import IntervalCore
from repro.sim.simulator import RunResult, _collect_result


def stepped_reference(system, traces, warmup_fraction=0.25, llc_cycles=14,
                      name="trace") -> RunResult:
    records = [list(trace) for trace in traces]
    schedule = [(idx, recs[pos])
                for pos in range(max(map(len, records), default=0))
                for idx, recs in enumerate(records) if pos < len(recs)]
    warmup = int(len(schedule) * max(0.0, min(0.9, warmup_fraction)))
    cores = [IntervalCore(system.config.cores, i) for i in range(len(traces))]
    cycles_offset, instruction_offset = 0.0, 0
    for n, (idx, record) in enumerate(schedule):
        if warmup and n == warmup:
            system.reset_measurement()
            cycles_offset = max(core.time_cycles for core in cores)
            instruction_offset = sum(core.stats.instructions
                                     for core in cores)
        core = cores[idx]
        core.execute(record.gap_instructions)
        latency = system.access(record.address, record.is_write,
                                core.time_ns)
        core.memory_miss(latency, sram_latency_cycles=llc_cycles)
    return _collect_result(
        system, name, len(schedule) - warmup,
        max((core.time_cycles for core in cores), default=0.0)
        - cycles_offset,
        sum(core.stats.instructions for core in cores) - instruction_offset)
