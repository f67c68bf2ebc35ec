"""MemPod baseline (Prodromou et al., HPCA 2017).

MemPod organises memory into pods and, inside each pod, tracks hot 2 KB
segments with the Majority Element Algorithm (MEA, a.k.a. Misra–Gries
frequent-elements counters).  At the end of every short interval (50 us)
the segments held by the MEA counters are migrated (swapped) into near
memory.  The paper's design-space exploration settled on 64 MEA counters per
pod with 50 us intervals, which are the defaults here.

The pod decomposition matters for hardware cost, not for the first-order
behaviour studied here, so the model uses a single pod whose MEA capacity is
``mea_counters`` (the sensitivity to that parameter is preserved and
exercised by the ablation bench).

Paper anchor: one of the three migration baselines of the evaluation
(Section 5, Figures 12-18); the slowest-reacting scheme, visible as the
lowest NM service ratio in Figure 15.
"""

from __future__ import annotations

from typing import Dict

from ..params import SystemConfig
from ..stats import Stats
from .migration_base import IntervalMigrationSystem


class MeaCounters:
    """Misra–Gries frequent-elements summary over segment numbers."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.counters: Dict[int, int] = {}

    def observe(self, segment: int, offset: int = 0) -> None:
        """Feed one far-memory segment visit into the MEA summary.  The
        offset in the segment is ignored; it is accepted so the migration
        step can call this as its far-memory hook."""
        if segment in self.counters:
            self.counters[segment] += 1
        elif len(self.counters) < self.capacity:
            self.counters[segment] = 1
        else:
            # Decrement-all step of the majority-element algorithm.
            for key in list(self.counters):
                self.counters[key] -= 1
                if self.counters[key] <= 0:
                    del self.counters[key]

    def tracked(self) -> Dict[int, int]:
        """Snapshot of the currently tracked segments and their counts."""
        return dict(self.counters)

    def clear(self) -> None:
        """Reset the summary at an interval boundary."""
        self.counters.clear()


class MemPod(IntervalMigrationSystem):
    """MemPod: interval-based migration guided by MEA counters."""

    name = "MPOD"

    def __init__(self, config: SystemConfig, *, mea_counters: int = 16,
                 seed: int = 17) -> None:
        super().__init__(config, seed=seed)
        self.mea = MeaCounters(mea_counters)
        self.intervals = 0

    def _note_hook(self):
        # MemPod only tracks far-memory segments: near-memory residents do
        # not need to migrate.
        return self.mea.observe

    def _interval_end(self, now_ns: float) -> None:
        self.intervals += 1
        hot = sorted(self.mea.tracked().items(), key=lambda kv: -kv[1])
        budget = self.migration_budget_swaps()
        protected = {segment for segment, _ in hot}
        for segment, _count in hot[:budget]:
            self._swap_into_nm(segment, now_ns, protected=protected)
        self.mea.clear()

    def _extra_stats(self, stats: Stats) -> None:
        super()._extra_stats(stats)
        stats.set("mempod.intervals", self.intervals)
        stats.set("mempod.mea_capacity", self.mea.capacity)
