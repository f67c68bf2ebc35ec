"""Generic DRAM-cache memory system used by the cache baselines.

The near memory is used entirely as a cache in front of the far memory
(the flat capacity software sees is therefore the far memory alone — the
capacity cost of caches the paper highlights).  The model is parameterised
by the properties the motivation study (Figures 1 and 2) sweeps:

* **line size** — from 64 B to 4 KB; misses fetch a whole line, so large
  lines prefetch (good for spatial locality) but over-fetch (bad without);
* **associativity** — set associative or fully associative;
* **tag handling** — an idealised cache pays nothing for tags; realistic
  designs (DFC) pay an in-DRAM tag access for part of their lookups.

Per-line "touched 64 B block" masks are maintained so the harness can report
how much fetched data was never used (Figure 1).

Paper anchor: the generic cache organisation behind the motivation study
(Section 2, Figures 1-2) and the base of the Tagless/DFC/idealised cache
baselines evaluated in Section 5 (Figures 12-18).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..common import LINE_SIZE, full_mask, popcount
from ..params import SystemConfig
from ..stats import Stats
from .base import MemorySystem


@dataclass
class DramCacheLine:
    """State of one resident DRAM-cache line."""

    tag: int
    dirty: bool = False
    touched_mask: int = 0          # one bit per 64 B block actually referenced


class DramCacheSystem(MemorySystem):
    """Near memory as a cache of the far memory."""

    name = "DRAM-CACHE"

    def __init__(self, config: SystemConfig, *, line_size: int = 1024,
                 ways: int = 16, fully_associative: bool = False,
                 tag_in_dram_miss: bool = False,
                 tag_in_dram_hit_fraction: float = 0.0,
                 tag_latency_ns: float = 0.0) -> None:
        super().__init__(config)
        if line_size % LINE_SIZE:
            raise ValueError("DRAM-cache line size must be a multiple of 64 B")
        self._make_controllers(config.near, config.far)
        self.line_size = line_size
        self.blocks_per_line = line_size // LINE_SIZE
        self.full_touch_mask = full_mask(self.blocks_per_line)
        self.tag_in_dram_miss = tag_in_dram_miss
        self.tag_in_dram_hit_fraction = tag_in_dram_hit_fraction
        self.tag_latency_ns = tag_latency_ns

        total_lines = max(1, config.near.capacity_bytes // line_size)
        self.nm_lines = total_lines
        if fully_associative:
            self.num_sets = 1
            self.ways = total_lines
        else:
            self.ways = min(ways, total_lines)
            self.num_sets = max(1, total_lines // self.ways)
        # One ordered dict per set: iteration order == LRU order.
        self._sets: list[OrderedDict[int, DramCacheLine]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

        self.cache_hits = 0
        self.cache_misses = 0
        self.fetched_blocks = 0
        self.used_blocks = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def _nm_address(self, set_index, tag):
        """Place a cached line somewhere deterministic in near memory (for
        ints or int64 ndarrays)."""
        return ((tag * self.num_sets + set_index) % self.nm_lines) * self.line_size

    def _columns(self, addresses):
        """Set index, tag, touched 64 B block and the NM ``(slot, row)``
        of the block, for each address.  A miss derives its NM fill base
        and FM line base from the set index and the tag.

        The block travels as an index, not as its bit: 4 KB lines have 64
        blocks, and ``1 << 63`` overflows int64.
        """
        address = addresses % self.flat_capacity_bytes
        line_size = self.line_size
        tag = address // line_size
        set_index = tag % self.num_sets
        block = (address % line_size) // LINE_SIZE
        nm_block = self._nm_address(set_index, tag) + block * LINE_SIZE
        return (set_index, tag, block, *self.near.locate(nm_block))

    def _step(self):
        """Probe the DRAM cache; a miss fetches the whole line from FM.

        A hit pays the tag cost and one NM burst.  A miss pays the tag
        cost, evicts the set's LRU line if the set is full
        (:meth:`_evict`), fetches the whole line from FM and installs it in
        NM in the background.  The in-DRAM tag read of a hit happens on
        every ``1 / tag_in_dram_hit_fraction``-th hit, a deterministic
        stand-in for that fraction; tag reads go to NM address 0, (0, 0).
        """
        near_line = self.near.line_access
        near_block = self.near.block_transfer
        far_block = self.far.block_transfer
        line_size = self.line_size
        sets = self._sets
        ways = self.ways
        tag_lat = self.tag_latency_ns
        hit_frac = self.tag_in_dram_hit_fraction
        hit_period = max(1, int(round(1.0 / hit_frac))) if hit_frac > 0.0 else 0
        miss_needs_tag = self.tag_in_dram_miss
        evict = self._evict
        nm_address = self._nm_address
        blocks_per_line = self.blocks_per_line

        def step(set_index: int, tag: int, block: int, nm_slot: int,
                 nm_row: int, is_write: bool, now_ns: float) -> float:
            cache_set = sets[set_index]
            line = cache_set.get(tag)
            if line is not None:
                cache_set.move_to_end(tag)
                line.touched_mask |= 1 << block
                if is_write:
                    line.dirty = True
                hits = self.cache_hits + 1
                self.cache_hits = hits
                latency = tag_lat
                if hit_period and hits % hit_period == 0:
                    latency += near_line(0, 0, False, now_ns, 2)
                return latency + near_line(nm_slot, nm_row, is_write, now_ns,
                                           0)

            self.cache_misses += 1
            latency = tag_lat
            if miss_needs_tag:
                latency += near_line(0, 0, False, now_ns, 2)
            if len(cache_set) >= ways:
                evict(cache_set, set_index, now_ns)
            latency += far_block(tag * line_size, line_size, False, now_ns,
                                 True)
            near_block(nm_address(set_index, tag), line_size, True, now_ns,
                       False)
            cache_set[tag] = DramCacheLine(tag=tag, dirty=is_write,
                                           touched_mask=1 << block)
            self.fetched_blocks += blocks_per_line
            return latency

        return step

    def _evict(self, cache_set: OrderedDict, set_index: int,
               now_ns: float) -> None:
        victim_tag, victim = cache_set.popitem(last=False)
        self.used_blocks += popcount(victim.touched_mask)
        if victim.dirty:
            # The whole line goes back: the cache keeps one dirty bit per
            # line.
            self.writebacks += 1
            line_size = self.line_size
            self.near.transfer_block(self._nm_address(set_index, victim_tag),
                                     line_size, False, now_ns, demand=False)
            self.far.transfer_block(victim_tag * line_size, line_size, True,
                                    now_ns, demand=False)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def flat_capacity_bytes(self) -> int:
        """Far memory alone — the capacity cost of caches (Section 1)."""
        return self.config.far.capacity_bytes

    @property
    def hit_rate(self) -> float:
        """Fraction of processor requests that hit in the DRAM cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def wasted_data_fraction(self) -> float:
        """Fraction of fetched data never referenced before eviction.

        Lines still resident are counted as well, so the figure is meaningful
        even for short runs.
        """
        fetched = self.fetched_blocks
        used = self.used_blocks
        for cache_set in self._sets:
            for line in cache_set.values():
                used += popcount(line.touched_mask)
        if fetched == 0:
            return 0.0
        return max(0.0, 1.0 - used / fetched)

    def _extra_stats(self, stats: Stats) -> None:
        stats.set("cache.hits", self.cache_hits)
        stats.set("cache.misses", self.cache_misses)
        stats.set("cache.hit_rate", self.hit_rate)
        stats.set("cache.writebacks", self.writebacks)
        stats.set("cache.fetched_blocks", self.fetched_blocks)
        stats.set("cache.wasted_fraction", self.wasted_data_fraction())
