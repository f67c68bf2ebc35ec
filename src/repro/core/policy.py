"""Migration decision of Hybrid2 (Section 3.7, Figure 10).

When a sector that still lives in far memory is evicted from the DRAM
cache, the DCMC decides between *evicting* it back to FM and *migrating* it
into NM.  Three factors take part:

1. the **access counter** accumulated while the sector was cached, compared
   against the counters of the other sectors in the same XTA set;
2. a **net cost** function over the number of valid and dirty cache lines,
   expressing how many extra FM accesses the migration would cost compared
   to a plain eviction; and
3. a **migration bandwidth budget**: a counter of demand FM accesses in the
   current window (reset every 100 K cycles) that migrations are allowed to
   "spend".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List


class MigrationVerdict(enum.Enum):
    """Outcome of the migration decision, with the reason it was reached."""

    MIGRATE = "migrate"
    EVICT_COUNTER = "evict-counter"      # another sector in the set was hotter
    EVICT_BANDWIDTH = "evict-bandwidth"  # not enough FM bandwidth budget

    @property
    def migrate(self) -> bool:
        return self is MigrationVerdict.MIGRATE


def migration_cost(lines_per_sector: int, valid_lines: int) -> int:
    """``Mcost = 2 * Nall - Nvalid + 1`` (fetch the missing lines, later swap
    a whole sector out of NM, plus one remap-table update)."""
    return 2 * lines_per_sector - valid_lines + 1


def eviction_cost(dirty_lines: int) -> int:
    """``Ecost = Ndirty`` (write the dirty lines back to FM)."""
    return dirty_lines


def net_cost(lines_per_sector: int, valid_lines: int, dirty_lines: int) -> int:
    """``Netcost = Mcost - Ecost = 2 * Nall - Nvalid - Ndirty + 1``."""
    return (migration_cost(lines_per_sector, valid_lines)
            - eviction_cost(dirty_lines))


@dataclass
class PolicyStats:
    """Why evictions migrated or not (useful for the ablation analysis)."""

    migrations: int = 0
    denied_by_counter: int = 0
    denied_by_bandwidth: int = 0

    @property
    def decisions(self) -> int:
        return self.migrations + self.denied_by_counter + self.denied_by_bandwidth


class MigrationPolicy:
    """Stateful migration decision: counter comparison + cost + budget."""

    def __init__(self, lines_per_sector: int, window_cycles: int,
                 cycle_ns: float, mode: str = "policy") -> None:
        if mode not in ("policy", "all", "none"):
            raise ValueError("mode must be 'policy', 'all' or 'none'")
        self.lines_per_sector = lines_per_sector
        self.window_ns = window_cycles * cycle_ns
        self.mode = mode
        self.budget = 0
        self._window_end_ns = self.window_ns
        self.stats = PolicyStats()

    # ------------------------------------------------------------------
    # bandwidth budget (Section 3.7.3)
    # ------------------------------------------------------------------
    def note_demand_fm_access(self, now_ns: float) -> None:
        """Every DRAM-cache miss fetched from FM grows the budget."""
        if now_ns >= self._window_end_ns:
            self._roll_over(now_ns)
        self.budget += 1

    def _roll_over(self, now_ns: float) -> None:
        """Start the window holding ``now_ns``, which is past the current
        one's end, with an empty budget."""
        self.budget = 0
        # Skip whole windows if the workload went quiet for a while.
        while self._window_end_ns <= now_ns:
            self._window_end_ns += self.window_ns

    # ------------------------------------------------------------------
    # decision (Figure 10)
    # ------------------------------------------------------------------
    def decide(self, access_counter: int, competing_counters: Iterable[int],
               valid_lines: int, dirty_lines: int, now_ns: float) -> MigrationVerdict:
        """Decide what to do with an FM sector being evicted from the cache."""
        if now_ns >= self._window_end_ns:
            self._roll_over(now_ns)

        if self.mode == "none":
            self.stats.denied_by_counter += 1
            return MigrationVerdict.EVICT_COUNTER
        if self.mode == "all":
            self.stats.migrations += 1
            return MigrationVerdict.MIGRATE

        competitors: List[int] = list(competing_counters)
        if competitors and access_counter < max(competitors):
            self.stats.denied_by_counter += 1
            return MigrationVerdict.EVICT_COUNTER

        cost = net_cost(self.lines_per_sector, valid_lines, dirty_lines)
        if cost >= self.budget:
            self.stats.denied_by_bandwidth += 1
            return MigrationVerdict.EVICT_BANDWIDTH

        self.budget -= cost
        self.stats.migrations += 1
        return MigrationVerdict.MIGRATE
