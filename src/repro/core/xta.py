"""The eXtended Tag Array (XTA) — Figures 4 and 5 of the paper.

The XTA is the on-chip tag array of Hybrid2's sectored DRAM cache, extended
with the metadata that lets the same structure drive migration:

* per-sector **valid** and **dirty** flag vectors (one bit per DRAM-cache
  line of the sector);
* a saturating **access counter** used by the migration decision;
* an **NM pointer** — the near-memory frame that currently holds the
  sector's cached lines (indirection: any NM frame can back any set/way);
* an **FM pointer** — the far-memory frame the sector lives in while it has
  not been migrated (``None`` once the sector resides in near memory,
  matching the paper's convention of marking migrated sectors with all
  valid/dirty bits set and an unused FM pointer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common import full_mask, popcount


@dataclass
class XTAEntry:
    """One way of one XTA set."""

    tag: int = -1                      # processor-physical sector number
    valid_mask: int = 0                # one bit per DRAM-cache line
    dirty_mask: int = 0
    access_counter: int = 0
    nm_frame: Optional[int] = None     # NM frame backing the cached lines
    fm_frame: Optional[int] = None     # FM frame while not migrated
    lru_stamp: int = -1
    #: Back-reference to the set's tag->entry map (kept consistent by
    #: :meth:`clear` / :meth:`XTA.allocate`); ``None`` for free-standing
    #: entries created outside an :class:`XTA`.
    owner_map: Optional[Dict[int, "XTAEntry"]] = field(
        default=None, repr=False, compare=False)

    @property
    def allocated(self) -> bool:
        return self.tag >= 0

    @property
    def in_near_memory(self) -> bool:
        """True when the sector has already been migrated to / lives in NM."""
        return self.allocated and self.fm_frame is None

    def valid_lines(self) -> int:
        return popcount(self.valid_mask)

    def dirty_lines(self) -> int:
        return popcount(self.dirty_mask)

    def line_valid(self, line: int) -> bool:
        return bool(self.valid_mask & (1 << line))

    def line_dirty(self, line: int) -> bool:
        return bool(self.dirty_mask & (1 << line))

    def set_valid(self, line: int) -> None:
        self.valid_mask |= (1 << line)

    def set_dirty(self, line: int) -> None:
        self.dirty_mask |= (1 << line)

    def clear(self) -> None:
        if self.owner_map is not None and self.tag >= 0:
            self.owner_map.pop(self.tag, None)
        self.tag = -1
        self.valid_mask = 0
        self.dirty_mask = 0
        self.access_counter = 0
        self.nm_frame = None
        self.fm_frame = None
        self.lru_stamp = -1


class XTA:
    """Set-associative eXtended Tag Array.

    The array holds one entry per sector that can live in the DRAM cache
    (sets x ways == DRAM-cache capacity in sectors).  Replacement inside a
    set is LRU, as in Section 3.6 of the paper.
    """

    def __init__(self, num_sets: int, ways: int, lines_per_sector: int,
                 counter_max: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("XTA needs at least one set and one way")
        self.num_sets = num_sets
        self.ways = ways
        self.lines_per_sector = lines_per_sector
        self.counter_max = counter_max
        self.full_valid_mask = full_mask(lines_per_sector)
        self._sets: List[List[XTAEntry]] = [
            [XTAEntry() for _ in range(ways)] for _ in range(num_sets)
        ]
        #: One tag->entry dict per set: O(1) lookup/probe instead of the
        #: ways-long linear scan.  Maintained by :meth:`allocate` and
        #: :meth:`XTAEntry.clear` (through the entry's ``owner_map``).
        self._tag_maps: List[Dict[int, XTAEntry]] = [
            {} for _ in range(num_sets)
        ]
        for entries, tag_map in zip(self._sets, self._tag_maps):
            for entry in entries:
                entry.owner_map = tag_map
        self._clock = 0
        self.lookups = 0
        self.hits = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def set_index(self, sector: int) -> int:
        return sector % self.num_sets

    def entries(self, set_index: int) -> List[XTAEntry]:
        return self._sets[set_index]

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def probe(self, sector: int) -> Optional[XTAEntry]:
        """The entry holding ``sector``, or None; no statistics or LRU
        update (the DCMC step counts lookups and touches the entry itself).

        Used by the NM allocator to check whether a candidate victim frame is
        currently linked into the DRAM cache (Section 3.5).
        """
        return self._tag_maps[sector % self.num_sets].get(sector)

    def victim_way(self, sector: int) -> XTAEntry:
        """Return the entry to (re)use for ``sector``: an invalid way if one
        exists, otherwise the LRU way.  The caller evicts it first."""
        ways = self._sets[self.set_index(sector)]
        for entry in ways:
            if not entry.allocated:
                return entry
        return min(ways, key=lambda e: e.lru_stamp)

    def allocate(self, entry: XTAEntry, sector: int, nm_frame: Optional[int],
                 fm_frame: Optional[int]) -> XTAEntry:
        """(Re)initialise ``entry`` for ``sector``; the caller has already
        dealt with the previous occupant."""
        if entry.owner_map is not None and entry.tag >= 0:
            entry.owner_map.pop(entry.tag, None)
        tag_map = self._tag_maps[sector % self.num_sets]
        tag_map[sector] = entry
        entry.owner_map = tag_map
        entry.tag = sector
        entry.access_counter = 0
        entry.nm_frame = nm_frame
        entry.fm_frame = fm_frame
        if fm_frame is None:
            # Sector already resides in NM: paper convention is all lines
            # valid and dirty (Section 3.4, case 2a).
            entry.valid_mask = self.full_valid_mask
            entry.dirty_mask = self.full_valid_mask
        else:
            entry.valid_mask = 0
            entry.dirty_mask = 0
        self._touch(entry)
        return entry

    def competing_counters(self, sector: int, victim: XTAEntry) -> List[int]:
        """Counters of the other sectors in the victim's set that take part
        in the migration comparison (saturated counters are ignored)."""
        counters = []
        for entry in self._sets[self.set_index(sector)]:
            if entry is victim or not entry.allocated:
                continue
            if entry.access_counter >= self.counter_max:
                continue
            counters.append(entry.access_counter)
        return counters

    # ------------------------------------------------------------------
    # internals / reporting
    # ------------------------------------------------------------------
    def _touch(self, entry: XTAEntry) -> None:
        self._clock += 1
        entry.lru_stamp = self._clock

    @property
    def capacity_sectors(self) -> int:
        return self.num_sets * self.ways

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def allocated_entries(self) -> int:
        return sum(1 for s in self._sets for e in s if e.allocated)

    def storage_bits(self, tag_bits: int = 28, pointer_bits: int = 24) -> int:
        """Approximate on-chip storage of the XTA in bits.

        Used to check the paper's constraint that the XTA stays within a
        512 KB on-chip budget (Section 5.1).
        """
        per_entry = (tag_bits + 2 * self.lines_per_sector + 9 +
                     2 * pointer_bits + 8)  # tag, valid+dirty, counter, ptrs, LRU
        return per_entry * self.capacity_sectors
