"""The stepped oracle the engine tests compare ``simulate()`` against.

:func:`stepped_reference` is :func:`~repro.sim.simulator.simulate` the
slow way: one :class:`IntervalCore` per trace, stepped per reference
through :meth:`MemorySystem.access` (the design's step compiled over
one-slot columns and fed Python ints) in pass-based round-robin order,
with the counters reset after the warm-up references.  ``simulate()``
precomputes everything latency-independent
(:func:`~repro.cpu.core.miss_columns`) and feeds the step whole
ndarray-derived columns, so agreement on every counter checks the driver,
the schedule and each design's column arithmetic at once.
"""

from collections import deque

from repro.sim.simulator import RunResult, _collect_result


class IntervalCore:
    """Timing model of one out-of-order core, stepped per reference.

    Non-memory instructions advance time at the issue width; an LLC miss
    is tracked in a bounded window of outstanding misses, and a miss whose
    latency is ``L`` stalls the core by ``L / overlap``, where ``overlap``
    is the number of in-flight misses (the interval-simulation treatment
    of memory-level parallelism).
    """

    def __init__(self, params) -> None:
        self.params = params
        self.time_cycles = 0.0
        self.instructions = 0
        self._outstanding = deque()

    @property
    def time_ns(self) -> float:
        return self.time_cycles * self.params.cycle_ns

    def execute(self, instructions: int) -> None:
        """Retire ``instructions`` non-memory instructions."""
        if instructions <= 0:
            return
        self.time_cycles += instructions / self.params.issue_width
        self.instructions += instructions

    def memory_miss(self, latency_ns: float,
                    sram_latency_cycles: float = 0.0) -> float:
        """Account an LLC miss whose memory latency is ``latency_ns``;
        return the stall charged to the core in cycles.

        Misses fewer than ``rob_size`` instructions apart overlap, so only
        ``latency / overlap`` is exposed, with the overlap bounded by the
        MSHR count.
        """
        self.instructions += 1
        if sram_latency_cycles:
            self.time_cycles += sram_latency_cycles
        latency_cycles = latency_ns * self.params.frequency_ghz
        instruction_now = self.instructions

        # Drop misses that have fallen out of the ROB window.
        window = self.params.rob_size
        while (self._outstanding
               and instruction_now - self._outstanding[0] > window):
            self._outstanding.popleft()
        while len(self._outstanding) >= self.params.max_outstanding_misses:
            self._outstanding.popleft()

        exposed = latency_cycles / (len(self._outstanding) + 1)
        self._outstanding.append(instruction_now)
        self.time_cycles += exposed
        return exposed


def stepped_reference(system, traces, warmup_fraction=0.25,
                      name="trace") -> RunResult:
    records = [list(zip(trace.gaps.tolist(), trace.addresses.tolist(),
                        trace.is_write.tolist())) for trace in traces]
    schedule = [(idx, recs[pos])
                for pos in range(max(map(len, records), default=0))
                for idx, recs in enumerate(records) if pos < len(recs)]
    warmup = int(len(schedule) * max(0.0, min(0.9, warmup_fraction)))
    cores = [IntervalCore(system.config.cores) for _ in traces]
    llc_cycles = system.config.cores.llc_latency_cycles
    cycles_offset, instruction_offset = 0.0, 0
    for n, (idx, (gap, address, is_write)) in enumerate(schedule):
        if warmup and n == warmup:
            system.reset_measurement()
            cycles_offset = max(core.time_cycles for core in cores)
            instruction_offset = sum(core.instructions for core in cores)
        core = cores[idx]
        core.execute(gap)
        latency = system.access(address, is_write, core.time_ns)
        core.memory_miss(latency, sram_latency_cycles=llc_cycles)
    return _collect_result(
        system, name, len(schedule) - warmup,
        max((core.time_cycles for core in cores), default=0.0)
        - cycles_offset,
        sum(core.instructions for core in cores) - instruction_offset)
