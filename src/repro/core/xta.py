"""The eXtended Tag Array (XTA) — Figures 4 and 5 of the paper.

The XTA is the on-chip tag array of Hybrid2's sectored DRAM cache, extended
with the metadata that lets the same structure drive migration:

* per-sector **valid** and **dirty** flag vectors (one bit per DRAM-cache
  line of the sector);
* a saturating **access counter** used by the migration decision;
* an **NM pointer** — the near-memory frame that currently holds the
  sector's cached lines (indirection: any NM frame can back any set/way);
* an **FM pointer** — the far-memory frame the sector lives in while it has
  not been migrated (-1 once the sector resides in near memory, matching
  the paper's convention of marking migrated sectors with all valid/dirty
  bits set and an unused FM pointer).

The array is flat: each field is one list with an entry per way, indexed
by ``slot = set * ways + way`` (``tags``, ``valid``, ``dirty``,
``counters``, ``nm_frames``, ``fm_frames``, ``lru``), and one
``sector -> slot`` dict (``slot_of``) finds a linked sector.  A free way
has tag -1.  The DCMC step reads and writes these lists directly.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..common import full_mask


class XTA:
    """Set-associative eXtended Tag Array.

    The array holds one way per sector that can live in the DRAM cache
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
        slots = num_sets * ways
        self.tags: List[int] = [-1] * slots       # processor-physical sector
        self.valid: List[int] = [0] * slots       # one bit per DRAM-cache line
        self.dirty: List[int] = [0] * slots
        self.counters: List[int] = [0] * slots
        self.nm_frames: List[int] = [-1] * slots  # NM frame of the cached lines
        self.fm_frames: List[int] = [-1] * slots  # FM home; -1 = lives in NM
        self.lru: List[int] = [-1] * slots
        self.slot_of: Dict[int, int] = {}
        #: Source of LRU stamps: ``next(xta.ticks)`` touches a way.
        self.ticks = itertools.count(1)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def probe(self, sector: int) -> Optional[int]:
        """The slot holding ``sector``, or None; no LRU update.

        Used by the NM allocator to check whether a candidate victim frame is
        currently linked into the DRAM cache (Section 3.5).
        """
        return self.slot_of.get(sector)

    def victim_way(self, sector: int) -> int:
        """The slot to (re)use for ``sector``: the first free way of its
        set if one exists, otherwise the LRU way.  The caller evicts it
        first."""
        base = sector % self.num_sets * self.ways
        end = base + self.ways
        try:
            return self.tags.index(-1, base, end)
        except ValueError:
            stamps = self.lru[base:end]
            return base + stamps.index(min(stamps))

    def allocate(self, slot: int, sector: int, nm_frame: int,
                 fm_frame: int) -> int:
        """Link ``sector`` into the free ``slot`` (``fm_frame`` -1: it
        already lives in NM) and return the slot."""
        self.slot_of[sector] = slot
        self.tags[slot] = sector
        self.counters[slot] = 0
        self.nm_frames[slot] = nm_frame
        self.fm_frames[slot] = fm_frame
        # A sector that already resides in NM shows all lines valid and
        # dirty (paper convention, Section 3.4, case 2a).
        mask = self.full_valid_mask if fm_frame < 0 else 0
        self.valid[slot] = mask
        self.dirty[slot] = mask
        self.lru[slot] = next(self.ticks)
        return slot

    def clear(self, slot: int) -> None:
        """Unlink the sector in ``slot`` and free the way."""
        del self.slot_of[self.tags[slot]]
        self.tags[slot] = -1
        self.valid[slot] = 0
        self.dirty[slot] = 0
        self.counters[slot] = 0
        self.nm_frames[slot] = -1
        self.fm_frames[slot] = -1
        self.lru[slot] = -1

    def competing_counters(self, slot: int) -> List[int]:
        """Counters of the other linked sectors in ``slot``'s set that take
        part in the migration comparison (saturated counters are
        ignored)."""
        base = slot - slot % self.ways
        end = base + self.ways
        cap = self.counter_max
        return [count for way, (tag, count) in enumerate(
                    zip(self.tags[base:end], self.counters[base:end]), base)
                if way != slot and tag >= 0 and count < cap]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def capacity_sectors(self) -> int:
        return self.num_sets * self.ways

    def allocated_entries(self) -> int:
        return len(self.slot_of)

    def storage_bits(self, tag_bits: int = 28, pointer_bits: int = 24) -> int:
        """Approximate on-chip storage of the XTA in bits.

        Used to check the paper's constraint that the XTA stays within a
        512 KB on-chip budget (Section 5.1).
        """
        per_entry = (tag_bits + 2 * self.lines_per_sector + 9 +
                     2 * pointer_bits + 8)  # tag, valid+dirty, counter, ptrs, LRU
        return per_entry * self.capacity_sectors
