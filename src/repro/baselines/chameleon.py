"""Chameleon baseline (Kotra et al., MICRO 2018).

Chameleon builds on PoM-style congruence groups: each group pairs one near-
memory segment slot with the far-memory segments that compete for it, and a
set of competing counters decides when to swap a hot far-memory segment into
the group's NM slot (the paper reports ``K = 14`` as the best threshold for
this memory configuration).  Chameleon's contribution on top of PoM is to
reuse memory the OS is not using as a cache; following the paper's
methodology, the model grants Chameleon the same NM capacity Hybrid2 spends
on its DRAM cache for that cache mode.

Group-based remapping needs only a few bits per group, so — unlike MemPod
and LGM — no in-memory remap table traffic is charged.

Paper anchor: one of the three migration baselines of the evaluation
(Section 5, Figures 12-18); its cache mode is why it tracks the caches
more closely than MemPod/LGM in Figure 15.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from ..params import SystemConfig
from ..stats import Stats
from .migration_base import MigrationSystem


class ChameleonGroups(MigrationSystem):
    """Chameleon: group-based competing-counter swaps plus a cache mode."""

    name = "CHA"
    remap_in_memory = False

    def __init__(self, config: SystemConfig, *, threshold: int = 14,
                 seed: int = 17) -> None:
        super().__init__(config, seed=seed)
        self.threshold = threshold
        #: competing counter per far-memory segment (sparse).  Counters are
        #: bumped once per segment *visit* (consecutive accesses to the same
        #: segment are one visit), which is what makes the competing-counter
        #: threshold meaningful for coarse, high-spatial-locality streams.
        self._counters: Dict[int, int] = {}
        self._last_segment: int = -1
        #: segments currently held by the cache mode (LRU over segments).
        self._cache_mode: OrderedDict[int, bool] = OrderedDict()
        self._cache_capacity = config.hybrid2.cache_sectors
        self.cache_mode_hits = 0
        self.cache_mode_fills = 0
        self.group_swaps = 0

    # ------------------------------------------------------------------
    # access path: cache mode first, then the flat space
    # ------------------------------------------------------------------
    def _columns(self, addresses):
        """Segment number and offset in the segment of each address."""
        address = addresses % self.flat_capacity_bytes
        return address // self.segment_bytes, address % self.segment_bytes

    def _step(self):
        """Serve from the cache-mode copy if present, else the flat space.

        Chameleon replaces the shared migration step: it reads no
        in-memory remap table, serves FM segments that have a cache-mode
        copy from the reserved NM slice, and migrates by group swaps
        rather than at interval boundaries.  Its competing counters are
        bumped once per segment *visit* to FM (a cache-mode hit still
        counts, so a persistently hot segment still gets promoted into
        the flat NM space); half the threshold fills the cache mode
        (:meth:`_fill_cache_mode`), the full threshold swaps the segment
        into NM.  Frames are runtime state: the step maps them inline, with
        :meth:`~repro.memory.controller.MemoryController.locate`'s slot
        table.
        """
        near_line = self.near.line_access
        far_line = self.far.line_access
        n_slots, n_period, n_span, n_stride = self.near.address_map
        f_slots, f_period, f_span, f_stride = self.far.address_map
        seg_bytes = self.segment_bytes
        near_col = self.remap._in_near
        frame_col = self.remap._frame
        cache_mode = self._cache_mode
        cache_move = cache_mode.move_to_end
        counters = self._counters
        threshold = self.threshold
        fill_at = threshold // 2
        cache_capacity = self._cache_capacity

        def note_fm(segment: int, now_ns: float) -> None:
            if segment == self._last_segment:
                return
            self._last_segment = segment
            count = counters.get(segment, 0) + 1
            if count >= threshold:
                counters.pop(segment, None)
                if self._swap_into_nm(segment, now_ns):
                    self.group_swaps += 1
                    cache_mode.pop(segment, None)
                return
            counters[segment] = count
            if count == fill_at:
                self._fill_cache_mode(segment, now_ns)

        def step(seg: int, off: int, is_write: bool, now_ns: float) -> float:
            if near_col[seg]:
                address = frame_col[seg] * seg_bytes + off
                latency = near_line(n_slots[address % n_period // n_span],
                                    address // n_stride, is_write, now_ns, 0)
                self._last_segment = seg
                return latency
            if seg in cache_mode:
                if is_write:
                    cache_mode[seg] = True
                cache_move(seg)
                self.cache_mode_hits += 1
                address = (seg % cache_capacity) * seg_bytes + off
                latency = near_line(n_slots[address % n_period // n_span],
                                    address // n_stride, is_write, now_ns, 0)
                note_fm(seg, now_ns)
                return latency
            address = frame_col[seg] * seg_bytes + off
            latency = far_line(f_slots[address % f_period // f_span],
                               address // f_stride, is_write, now_ns, 0)
            note_fm(seg, now_ns)
            return latency

        return step

    # ------------------------------------------------------------------
    # competing counters
    # ------------------------------------------------------------------
    def _fill_cache_mode(self, segment: int, now_ns: float) -> None:
        """Copy a warming segment into the reserved (OS-unused) NM slice."""
        if segment in self._cache_mode:
            return
        self.cache_mode_fills += 1
        _, frame = self.remap.lookup(segment)
        self.far.transfer_block(frame * self.segment_bytes,
                                self.segment_bytes, False, now_ns, demand=False)
        self.near.transfer_block(
            (segment % self._cache_capacity) * self.segment_bytes,
            self.segment_bytes, True, now_ns, demand=False)
        self._cache_mode[segment] = False
        if len(self._cache_mode) > self._cache_capacity:
            victim, dirty = self._cache_mode.popitem(last=False)
            if dirty:
                # Write the modified copy back to its far-memory home.
                _, victim_frame = self.remap.lookup(victim)
                self.near.transfer_block(
                    (victim % self._cache_capacity) * self.segment_bytes,
                    self.segment_bytes, False, now_ns, demand=False)
                self.far.transfer_block(victim_frame * self.segment_bytes,
                                        self.segment_bytes, True, now_ns,
                                        demand=False)

    def _extra_stats(self, stats: Stats) -> None:
        super()._extra_stats(stats)
        stats.set("chameleon.group_swaps", self.group_swaps)
        stats.set("chameleon.cache_mode_hits", self.cache_mode_hits)
        stats.set("chameleon.cache_mode_fills", self.cache_mode_fills)
