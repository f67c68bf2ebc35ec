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
from typing import Tuple

from ..common import LINE_SIZE, AccessOutcome, full_mask, popcount
from ..memory.kernels import make_kernels
from ..params import SystemConfig
from ..stats import Stats
from .base import MemorySystem


@dataclass
class DramCacheLine:
    """State of one resident DRAM-cache line."""

    tag: int
    dirty: bool = False
    touched_mask: int = 0          # one bit per 64 B block actually referenced

    def touch(self, block: int, is_write: bool) -> None:
        """Mark one 64 B block of the line as referenced (dirty on writes)."""
        self.touched_mask |= (1 << block)
        self.dirty = self.dirty or is_write


class DramCacheSystem(MemorySystem):
    """Near memory as a cache of the far memory."""

    name = "DRAM-CACHE"

    def __init__(self, config: SystemConfig, *, line_size: int = 1024,
                 ways: int = 16, fully_associative: bool = False,
                 tag_in_dram_miss: bool = False,
                 tag_in_dram_hit_fraction: float = 0.0,
                 tag_latency_ns: float = 0.0,
                 writeback_whole_line: bool = True) -> None:
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
        self.writeback_whole_line = writeback_whole_line

        total_lines = max(1, config.near.capacity_bytes // line_size)
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
        self._hit_counter = 0  # deterministic stand-in for the hit-tag fraction

        self.cache_hits = 0
        self.cache_misses = 0
        self.fetched_blocks = 0
        self.used_blocks = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def _locate(self, address: int) -> Tuple[int, int, int]:
        """Return ``(set_index, tag, touched_block_index)``."""
        line = address // self.line_size
        block = (address % self.line_size) // LINE_SIZE
        return line % self.num_sets, line, block

    def _nm_address(self, set_index: int, tag: int, offset: int = 0) -> int:
        """Place a cached line somewhere deterministic in near memory."""
        slot = (tag * self.num_sets + set_index) % max(
            1, self.config.near.capacity_bytes // self.line_size)
        return slot * self.line_size + offset

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool, now_ns: float) -> AccessOutcome:
        """Probe the DRAM cache; a miss fetches the whole line from FM."""
        address = address % self.flat_capacity_bytes
        set_index, tag, block = self._locate(address)
        cache_set = self._sets[set_index]
        latency = 0.0

        line = cache_set.get(tag)
        if line is not None:
            cache_set.move_to_end(tag)
            line.touch(block, is_write)
            self.cache_hits += 1
            latency += self._tag_overhead(now_ns, hit=True)
            latency += self.near.access(
                self._nm_address(set_index, tag, block * LINE_SIZE),
                is_write, now_ns, demand=True)
            return self._outcome(latency, served_from_nm=True, is_write=is_write,
                                 dram_cache_hit=True, path="cache-hit")

        # Miss: evict if needed, then fetch the whole line from far memory.
        self.cache_misses += 1
        latency += self._tag_overhead(now_ns, hit=False)
        if len(cache_set) >= self.ways:
            self._evict(cache_set, set_index, now_ns)

        latency += self.far.transfer_block(address - address % self.line_size,
                                           self.line_size, False, now_ns,
                                           demand=True)
        # Install in near memory (background fill traffic).
        self.near.transfer_block(self._nm_address(set_index, tag),
                                 self.line_size, True, now_ns, demand=False)
        new_line = DramCacheLine(tag=tag)
        new_line.touch(block, is_write)
        cache_set[tag] = new_line
        self.fetched_blocks += self.blocks_per_line
        return self._outcome(latency, served_from_nm=False, is_write=is_write,
                             dram_cache_hit=False, path="cache-miss")

    def fast_path(self, addresses):
        """Batch operator shared by the cache baselines (IDEAL/TAGLESS/DFC).

        Set index, tag, touched-block bit and every placement address
        (NM slot, NM fill base, FM line base) are pure functions of the
        address, so they are computed for the whole column with numpy once.
        The step inlines the hit path (tag probe + one NM burst) and the
        miss path (tag cost, fetch + fill); evictions stay on
        :meth:`_evict`, which shares the same set/controller state.
        """
        near_line, near_block = make_kernels(self.near)
        far_line, far_block = make_kernels(self.far)
        line_size = self.line_size
        num_sets = self.num_sets
        addr = addresses % self.flat_capacity_bytes
        line_arr = addr // line_size
        set_arr = line_arr % num_sets
        block_arr = (addr % line_size) // LINE_SIZE
        # _nm_address over the whole column.
        nm_lines = max(1, self.config.near.capacity_bytes // line_size)
        nm_base_arr = ((line_arr * num_sets + set_arr) % nm_lines) * line_size
        set_col = set_arr.tolist()
        tag_col = line_arr.tolist()
        # Python-int shifts: 4 KB lines have 64 blocks and ``1 << 63``
        # overflows int64.
        bit_col = [1 << b for b in block_arr.tolist()]
        nm_hit_col = (nm_base_arr + block_arr * LINE_SIZE).tolist()
        nm_base_col = nm_base_arr.tolist()
        fm_base_col = (addr - addr % line_size).tolist()

        sets = self._sets
        ways = self.ways
        tag_lat = self.tag_latency_ns
        hit_frac = self.tag_in_dram_hit_fraction
        hit_period = max(1, int(round(1.0 / hit_frac))) if hit_frac > 0.0 else 0
        miss_needs_tag = self.tag_in_dram_miss
        evict = self._evict
        blocks_per_line = self.blocks_per_line

        def step(i: int, is_write: bool, now_ns: float) -> float:
            tag = tag_col[i]
            cache_set = sets[set_col[i]]
            line = cache_set.get(tag)
            if line is not None:
                cache_set.move_to_end(tag)
                line.touched_mask |= bit_col[i]
                if is_write:
                    line.dirty = True
                self.cache_hits += 1
                latency = tag_lat
                if hit_period:
                    hits = self._hit_counter + 1
                    self._hit_counter = hits
                    if hits % hit_period == 0:
                        latency += near_line(0, False, now_ns, 2)
                latency += near_line(nm_hit_col[i], is_write, now_ns, 0)
                self.requests += 1
                if is_write:
                    self.write_requests += 1
                self.requests_from_nm += 1
                return latency

            self.cache_misses += 1
            latency = tag_lat
            if miss_needs_tag:
                latency += near_line(0, False, now_ns, 2)
            if len(cache_set) >= ways:
                evict(cache_set, set_col[i], now_ns)
            latency += far_block(fm_base_col[i], line_size, False, now_ns,
                                 True)
            near_block(nm_base_col[i], line_size, True, now_ns, False)
            cache_set[tag] = DramCacheLine(tag=tag, dirty=is_write,
                                           touched_mask=bit_col[i])
            self.fetched_blocks += blocks_per_line
            self.requests += 1
            if is_write:
                self.write_requests += 1
            return latency

        return step

    def _evict(self, cache_set: OrderedDict, set_index: int,
               now_ns: float) -> None:
        victim_tag, victim = cache_set.popitem(last=False)
        self.used_blocks += popcount(victim.touched_mask)
        if victim.dirty:
            self.writebacks += 1
            nbytes = (self.line_size if self.writeback_whole_line
                      else popcount(victim.touched_mask) * LINE_SIZE)
            nbytes = max(LINE_SIZE, nbytes)
            self.near.transfer_block(self._nm_address(set_index, victim_tag),
                                     nbytes, False, now_ns, demand=False)
            self.far.transfer_block(victim_tag * self.line_size, nbytes, True,
                                    now_ns, demand=False)

    def _tag_overhead(self, now_ns: float, hit: bool) -> float:
        """Latency cost of locating the line (zero for the ideal cache)."""
        latency = self.tag_latency_ns
        needs_dram_tag = False
        if hit and self.tag_in_dram_hit_fraction > 0.0:
            self._hit_counter += 1
            period = max(1, int(round(1.0 / self.tag_in_dram_hit_fraction)))
            needs_dram_tag = (self._hit_counter % period) == 0
        elif not hit:
            needs_dram_tag = self.tag_in_dram_miss
        if needs_dram_tag:
            latency += self.near.access(0, False, now_ns, metadata=True)
        return latency

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
