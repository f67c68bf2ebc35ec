"""LLC-guided data migration (LGM) baseline (Vasilakis et al., IPDPS 2019).

LGM selects 2 KB segments for migration based on the spatial locality it
observes in the last-level cache: segments for which many distinct lines
have been touched are good migration candidates, and lines that are already
present in the LLC do not need to be re-fetched from far memory when the
segment migrates (they are marked dirty and written back later), which is
LGM's bandwidth-saving trick.

The model tracks, per interval, the access count and the set of distinct
64 B lines touched per far-memory segment.  At the interval boundary the
best candidates (most distinct lines touched, at least ``min_accesses``
accesses) are migrated, up to the configured watermark; the FM read traffic
of each migration is reduced by the lines observed in the interval (the
LLC-resident approximation).

Paper anchor: one of the three migration baselines of the evaluation
(Section 5, Figures 12-18); its bandwidth-saving trick shows up as low
FM traffic in Figure 16 at a low NM service ratio in Figure 15.
"""

from __future__ import annotations

from typing import Dict, Set

from ..common import LINE_SIZE
from ..params import SystemConfig
from ..stats import Stats
from .migration_base import IntervalMigrationSystem


class LgmMigration(IntervalMigrationSystem):
    """LGM: spatial-locality-guided interval migration."""

    name = "LGM"

    def __init__(self, config: SystemConfig, *, watermark: int = 32,
                 min_accesses: int = 2, seed: int = 17) -> None:
        super().__init__(config, seed=seed)
        self.watermark = watermark
        self.min_accesses = min_accesses
        self._access_count: Dict[int, int] = {}
        self._lines_touched: Dict[int, Set[int]] = {}
        self.intervals = 0
        self.lines_saved = 0

    def _note_hook(self):
        # Per far-memory segment: the access count, and the distinct 64 B
        # lines touched, so the spatial-locality score sees line
        # granularity rather than segment granularity.
        counts = self._access_count
        lines = self._lines_touched

        def note(segment, offset):
            counts[segment] = counts.get(segment, 0) + 1
            touched = lines.get(segment)
            if touched is None:
                touched = lines[segment] = set()
            touched.add(offset // LINE_SIZE)

        return note

    def _interval_end(self, now_ns: float) -> None:
        self.intervals += 1
        candidates = [
            (segment, len(self._lines_touched.get(segment, ())))
            for segment, count in self._access_count.items()
            if count >= self.min_accesses
        ]
        candidates.sort(key=lambda kv: -kv[1])
        selected = candidates[:min(self.watermark, self.migration_budget_swaps())]
        protected = {segment for segment, _ in selected}
        lines_per_segment = self.segment_bytes // LINE_SIZE
        for segment, lines_in_llc in selected:
            lines_to_fetch = max(0, lines_per_segment - lines_in_llc)
            migrated = self._swap_into_nm(
                segment, now_ns, protected=protected,
                fm_read_bytes=lines_to_fetch * LINE_SIZE)
            if migrated:
                self.lines_saved += min(lines_in_llc, lines_per_segment)
        self._access_count.clear()
        self._lines_touched.clear()

    def _extra_stats(self, stats: Stats) -> None:
        super()._extra_stats(stats)
        stats.set("lgm.intervals", self.intervals)
        stats.set("lgm.lines_saved", self.lines_saved)
