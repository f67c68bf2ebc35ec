"""Interval-based core timing model.

The paper evaluates with an in-house Pin-based simulator that follows the
interval simulation methodology (Genbrugge et al., HPCA 2010): the core is
assumed to retire instructions at its issue width except for *intervals*
introduced by long-latency events — here, LLC misses.  The length of the
stall interval depends on how many misses overlap (memory-level
parallelism).

:class:`IntervalCore` reproduces that first-order model:

* non-memory instructions advance time by ``instructions / issue_width``
  cycles;
* SRAM cache hits add their fixed latency;
* LLC misses are tracked in a bounded window of outstanding misses; a miss
  whose latency is ``L`` stalls the core by roughly ``L / overlap`` where
  ``overlap`` is the number of in-flight misses, bounded by
  ``max_outstanding_misses``.

:func:`~repro.sim.simulator.simulate` does not step :class:`IntervalCore`
objects.  Everything in the model except the stall itself depends on the
instruction gaps alone, so :func:`miss_columns` computes it for a whole
trace up front and the driver keeps only each core's time; it does not
fill the per-core :class:`CoreStats` breakdown.
:class:`~repro.sim.simulator.Simulator` (the full SRAM-hierarchy path)
still runs :class:`IntervalCore` and fills it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

import numpy as np

from ..params import CoreParams


@dataclass
class CoreStats:
    """Per-core accounting of time and events."""

    instructions: int = 0
    memory_references: int = 0
    llc_misses: int = 0
    compute_cycles: float = 0.0
    sram_cycles: float = 0.0
    stall_cycles: float = 0.0


class IntervalCore:
    """Timing model of one out-of-order core."""

    def __init__(self, params: CoreParams, core_id: int = 0) -> None:
        self.params = params
        self.core_id = core_id
        self.time_cycles: float = 0.0
        self.stats = CoreStats()
        self._outstanding: Deque[float] = deque()

    # ------------------------------------------------------------------
    # time base conversions
    # ------------------------------------------------------------------
    @property
    def time_ns(self) -> float:
        return self.params.cycles_to_ns(self.time_cycles)

    # ------------------------------------------------------------------
    # instruction execution
    # ------------------------------------------------------------------
    def execute(self, instructions: int) -> None:
        """Retire ``instructions`` non-memory instructions."""
        if instructions <= 0:
            return
        cycles = instructions / self.params.issue_width
        self.time_cycles += cycles
        self.stats.instructions += instructions
        self.stats.compute_cycles += cycles

    def sram_hit(self, latency_cycles: float) -> None:
        """Account a reference satisfied inside the SRAM hierarchy."""
        self.stats.memory_references += 1
        self.stats.instructions += 1
        self.time_cycles += latency_cycles
        self.stats.sram_cycles += latency_cycles

    def memory_miss(self, latency_ns: float, sram_latency_cycles: float = 0.0) -> float:
        """Account an LLC miss whose memory latency is ``latency_ns``.

        Returns the stall charged to the core in cycles.  Misses that fall
        within the same reorder-buffer window (fewer than ``rob_size``
        instructions apart) overlap, so only ``latency / overlap`` is exposed,
        with the overlap bounded by the MSHR count — the interval-simulation
        treatment of memory-level parallelism.
        """
        self.stats.memory_references += 1
        self.stats.instructions += 1
        self.stats.llc_misses += 1
        if sram_latency_cycles:
            self.time_cycles += sram_latency_cycles
            self.stats.sram_cycles += sram_latency_cycles

        latency_cycles = self.params.ns_to_cycles(latency_ns)
        instruction_now = self.stats.instructions

        # Drop misses that have fallen out of the ROB window.
        window = self.params.rob_size
        while self._outstanding and instruction_now - self._outstanding[0] > window:
            self._outstanding.popleft()
        while len(self._outstanding) >= self.params.max_outstanding_misses:
            self._outstanding.popleft()

        overlap = len(self._outstanding) + 1
        exposed = latency_cycles / overlap
        self._outstanding.append(instruction_now)
        self.time_cycles += exposed
        self.stats.stall_cycles += exposed
        return exposed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def ipc(self) -> float:
        if self.time_cycles == 0:
            return 0.0
        return self.stats.instructions / self.time_cycles

    def summary(self) -> dict:
        return {
            "core": self.core_id,
            "cycles": self.time_cycles,
            "instructions": self.stats.instructions,
            "ipc": self.ipc(),
            "llc_misses": self.stats.llc_misses,
            "stall_cycles": self.stats.stall_cycles,
        }


def miss_columns(gaps: np.ndarray,
                 params: CoreParams) -> Tuple[np.ndarray, np.ndarray]:
    """The latency-independent part of :meth:`IntervalCore.memory_miss`
    for one core's misses, in order, with ``gaps[j]`` instructions
    (negative gaps count as 0) retired before miss ``j``.

    Returns ``(instructions, overlap)``: the core's instruction count
    right after miss ``j``, and the divisor ``memory_miss`` applies to its
    latency (``len(window) + 1``).  The window only ever drops its oldest
    entries, and a miss adds at most one to the count of earlier misses
    within ``rob_size`` instructions, so the window holds
    ``min(earlier, max_outstanding_misses - 1)`` entries: one
    ``searchsorted`` per core instead of a deque per miss.
    """
    n = len(gaps)
    instructions = np.cumsum(np.maximum(gaps, 0)) + np.arange(1, n + 1)
    earlier = np.arange(n) - np.searchsorted(
        instructions, instructions - params.rob_size)
    overlap = np.minimum(earlier, params.max_outstanding_misses - 1) + 1
    return instructions, overlap
