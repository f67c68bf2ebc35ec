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
has tag -1 and LRU stamp -1 (a linked way's stamps start at 1), and a
way stays linked once used: an eviction relinks it at once.  The DCMC
step reads and writes these lists directly: it probes ``slot_of``, picks
a set's victim (its first free way, else its least recently used one),
links and unlinks sectors, and reads a set's counters for the migration
decision.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

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
