"""The DRAM Cache Migration Controller (DCMC) — Sections 3.4 to 3.7.

The DCMC is the heart of Hybrid2: every memory request passes through it.
It owns the eXtended Tag Array, the remapping metadata, the near-memory
frame pool and the migration policy, and it talks to the near- and
far-memory controllers.

The access path follows Figure 7 of the paper:

* **XTA hit / line hit** (1a): serve the 64 B request from the NM frame the
  XTA points at.
* **XTA hit / line miss** (1b): the sector is in FM with only part of it
  cached — fetch the missing DRAM-cache line from FM, install it in NM.
* **XTA miss** (2): read the remap table (an NM metadata access) to find the
  sector, allocate an XTA entry (which may trigger the eviction flow of
  Figure 9 and the migration decision of Figure 10), then serve from NM
  (2a: sector already lives in NM) or fetch from FM into a newly obtained
  cache frame (2b).
"""

from __future__ import annotations

from typing import Tuple

from ..common import LINE_SIZE, popcount
from ..memory.controller import MemoryController
from ..memory.kernels import make_kernels
from ..params import Hybrid2Params, SystemConfig
from ..stats import Stats
from .nm_allocator import NMFramePool
from .policy import MigrationPolicy, MigrationVerdict
from .remap import FreeFMStack, RemapTable
from .xta import XTA


class DCMC:
    """DRAM Cache Migration Controller."""

    def __init__(self, config: SystemConfig, near: MemoryController,
                 far: MemoryController, *, migration_mode: str = "policy",
                 model_metadata: bool = True, cache_only: bool = False,
                 seed: int = 17) -> None:
        self.config = config
        self.near = near
        self.far = far
        self.params: Hybrid2Params = config.hybrid2
        self.model_metadata = model_metadata
        self.cache_only = cache_only

        sector = self.params.sector_bytes
        self.sector_bytes = sector
        self.dram_line_bytes = self.params.cache_line_bytes
        self.lines_per_sector = self.params.lines_per_sector

        nm_total_frames = near.capacity_bytes // sector
        metadata_frames = int(round(nm_total_frames * self.params.metadata_fraction))
        carveout_frames = min(self.params.cache_sectors,
                              nm_total_frames - metadata_frames)
        if carveout_frames <= 0:
            raise ValueError("near memory too small for the configured DRAM cache")
        self.frames = NMFramePool(nm_total_frames, metadata_frames, carveout_frames)

        fm_frames = far.capacity_bytes // sector
        flat_nm_frames = [] if cache_only else self.frames.flat_frames
        if cache_only:
            # The flat space is the far memory alone; the rest of NM is idle.
            num_flat_sectors = fm_frames
        else:
            if not flat_nm_frames:
                raise ValueError(
                    "near memory too small: nothing left for the flat address "
                    "space after the DRAM cache and metadata reservations")
            num_flat_sectors = len(flat_nm_frames) + fm_frames
        self.num_flat_sectors = num_flat_sectors
        self.remap = RemapTable(num_flat_sectors, flat_nm_frames, fm_frames,
                                seed=seed)

        self.xta = XTA(self.params.xta_sets, self.params.associativity,
                       self.lines_per_sector, self.params.counter_max)
        self.policy = MigrationPolicy(
            self.lines_per_sector, self.params.bandwidth_window_cycles,
            config.cores.cycle_ns,
            mode="none" if cache_only else migration_mode)
        self.free_fm = FreeFMStack(self.params.on_chip_stack_entries)

        self._metadata_span = max(sector, metadata_frames * sector)

        self.counters = Stats()
        #: The counters' dict: the step and the rare paths add to it
        #: directly.
        self._counts = self.counters._counters

    # ------------------------------------------------------------------
    # public properties
    # ------------------------------------------------------------------
    @property
    def flat_capacity_bytes(self) -> int:
        """Main-memory capacity Hybrid2 exposes to software."""
        return self.num_flat_sectors * self.sector_bytes

    # ------------------------------------------------------------------
    # metadata accesses (remap tables, stack) stored in NM
    # ------------------------------------------------------------------
    def _metadata_access(self, key: int, is_write: bool, now_ns: float,
                         critical: bool) -> float:
        """Issue one remapping-metadata access to NM.

        Returns the latency to charge on the critical path (zero for
        background updates or when metadata modelling is disabled, as in the
        No-Remap ablation).
        """
        if not self.model_metadata:
            return 0.0
        self._counts["metadata.accesses"] += 1.0
        address = (key * LINE_SIZE) % self._metadata_span
        latency = self.near.access(address, is_write, now_ns, metadata=True)
        return latency if critical else 0.0

    # ------------------------------------------------------------------
    # main access path (Figure 7)
    # ------------------------------------------------------------------
    def columns(self, addresses):
        """``(sector, dram_cache_line_index, offset_in_sector)`` of each
        address, wrapped to the flat capacity (an int64 ndarray or one
        Python int)."""
        address = addresses % self.flat_capacity_bytes
        offset = address % self.sector_bytes
        return (address // self.sector_bytes, offset // self.dram_line_bytes,
                offset)

    def step(self, system, sec_col, line_col, off_col):
        """Compile the request path of Figure 7 over the :meth:`columns`
        lists into the step of :class:`~repro.core.hybrid2.Hybrid2System`.

        The step serves every XTA hit itself on the XTA's columns: the
        ``slot_of`` probe, the LRU touch, the access counter of a
        non-migrated sector, and then either one NM burst (1a, line hit)
        or the line fill (1b, line miss): the demand read of the DRAM-cache
        line from FM and its background install in NM.  It runs them on
        the NM line kernel and the two block kernels, bound once through
        :func:`~repro.memory.kernels.make_kernels`.  XTA misses (2) run in
        :meth:`_serve_xta_miss`.  ``system`` holds the NM-served request
        counter.  The XTA frame is runtime state: the step maps it inline,
        with :meth:`~repro.memory.device.DramDevice.locate`'s slot table.
        """
        near_line, near_block = make_kernels(self.near)
        _, far_block = make_kernels(self.far)
        n_slots, n_period, n_span, n_stride = self.near.device.address_map
        xta = self.xta
        slot_of = xta.slot_of
        valid = xta.valid
        dirty = xta.dirty
        access_counters = xta.counters
        nm_frames = xta.nm_frames
        fm_frames = xta.fm_frames
        lru = xta.lru
        ticks = xta.ticks
        counter_max = xta.counter_max
        counters = self._counts
        note_demand_fm_access = self.policy.note_demand_fm_access
        xta_lat = self.params.xta_latency_ns
        sector_bytes = self.sector_bytes
        line_bytes = self.dram_line_bytes
        serve_xta_miss = self._serve_xta_miss

        def step(i: int, is_write: bool, now_ns: float) -> float:
            sector = sec_col[i]
            slot = slot_of.get(sector)
            if slot is None:
                counters["xta.misses"] += 1.0
                latency, in_near = serve_xta_miss(sector, line_col[i],
                                                  off_col[i], is_write,
                                                  now_ns, xta_lat)
                if in_near:
                    system.requests_from_nm += 1
                return latency
            lru[slot] = next(ticks)
            fm_frame = fm_frames[slot]
            bit = 1 << line_col[i]
            if fm_frame >= 0:
                # Only non-migrated sectors count accesses (Section 3.7.1).
                if access_counters[slot] < counter_max:
                    access_counters[slot] += 1
                if not valid[slot] & bit:
                    # 1b: fetch the line from FM, install it in NM.
                    counters["line.misses"] += 1.0
                    note_demand_fm_access(now_ns)
                    line_offset = line_col[i] * line_bytes
                    latency = xta_lat + far_block(
                        fm_frame * sector_bytes + line_offset, line_bytes,
                        False, now_ns, True)
                    near_block(nm_frames[slot] * sector_bytes + line_offset,
                               line_bytes, True, now_ns, False)
                    valid[slot] |= bit
                    if is_write:
                        dirty[slot] |= bit
                    return latency
            if is_write:
                dirty[slot] |= bit
            counters["line.hits"] += 1.0
            address = nm_frames[slot] * sector_bytes + off_col[i]
            latency = near_line(n_slots[address % n_period // n_span],
                                address // n_stride, is_write, now_ns, 0)
            system.requests_from_nm += 1
            return xta_lat + latency

        return step

    # -- 2 -------------------------------------------------------------
    def _serve_xta_miss(self, sector: int, line: int, offset: int,
                        is_write: bool, now_ns: float,
                        latency: float) -> Tuple[float, bool]:
        """Serve an XTA miss; return the latency and whether the sector
        already lived in NM (the request was served from NM)."""
        # The remap-table read is on the critical path: the sector's location
        # must be known before the data can be fetched.
        latency += self._metadata_access(sector, False, now_ns, critical=True)
        in_near, home = self.remap.lookup(sector)

        xta = self.xta
        slot = xta.victim_way(sector)
        if xta.tags[slot] >= 0:
            self._evict(slot, now_ns)

        if in_near:
            # 2a: sector already lives in NM; link it to the XTA.
            self._counts["fills.sector_in_nm"] += 1.0
            xta.allocate(slot, sector, home, -1)
            latency += self.near.access(home * self.sector_bytes + offset,
                                        is_write, now_ns, demand=True)
            return latency, True

        # 2b: sector lives in FM; obtain a cache frame and fetch the line.
        self._counts["fills.sector_in_fm"] += 1.0
        self.policy.note_demand_fm_access(now_ns)
        frame = self._obtain_cache_frame(now_ns)
        xta.allocate(slot, sector, frame, home)
        # Inverted remap table learns the sector's processor address now
        # (Section 3.4), so the NM allocator can always resolve this frame.
        self.remap.record_inverse_nm(frame, sector)
        self._metadata_access(frame, True, now_ns, critical=False)

        line_offset = line * self.dram_line_bytes
        latency += self.far.transfer_block(
            home * self.sector_bytes + line_offset,
            self.dram_line_bytes, False, now_ns, demand=True)
        self.near.transfer_block(frame * self.sector_bytes + line_offset,
                                 self.dram_line_bytes, True, now_ns,
                                 demand=False)
        bit = 1 << line
        xta.valid[slot] = bit
        if is_write:
            xta.dirty[slot] = bit
        return latency, False

    # ------------------------------------------------------------------
    # DRAM-cache eviction (Figure 9) and migration (Figure 10)
    # ------------------------------------------------------------------
    def _evict(self, slot: int, now_ns: float) -> None:
        """Evict the sector linked in ``slot`` and free the way."""
        xta = self.xta
        if xta.fm_frames[slot] < 0:
            # Case 1: the sector already lives in NM; nothing moves.
            self._counts["evictions.nm_resident"] += 1.0
        else:
            verdict = self.policy.decide(
                xta.counters[slot], xta.competing_counters(slot),
                popcount(xta.valid[slot]), popcount(xta.dirty[slot]), now_ns)
            if verdict.migrate:
                self._migrate_sector(slot, now_ns)
            else:
                self._evict_sector_to_fm(slot, now_ns, verdict)
        xta.clear(slot)

    def _copy_lines(self, mask: int, source: MemoryController,
                    source_frame: int, dest: MemoryController,
                    dest_frame: int, now_ns: float) -> None:
        """Copy the DRAM-cache lines set in ``mask`` between two frames as
        background traffic: one block read and one block write per run of
        contiguous lines, runs in line order.

        The two devices keep separate state and a block streams its lines
        in order, so every counter and float equals copying the lines one
        by one.
        """
        line_bytes = self.dram_line_bytes
        source_base = source_frame * self.sector_bytes
        dest_base = dest_frame * self.sector_bytes
        line = 0
        while mask:
            # Skip the clear lines below the next run, then measure the run.
            skip = (mask & -mask).bit_length() - 1
            mask >>= skip
            line += skip
            run = (~mask & (mask + 1)).bit_length() - 1
            offset = line * line_bytes
            source.transfer_block(source_base + offset, run * line_bytes,
                                  False, now_ns, demand=False)
            dest.transfer_block(dest_base + offset, run * line_bytes,
                                True, now_ns, demand=False)
            mask >>= run
            line += run

    def _migrate_sector(self, slot: int, now_ns: float) -> None:
        """Complete the sector in NM and make its frame the permanent home."""
        counts = self._counts
        counts["migrations"] += 1.0
        xta = self.xta
        sector = xta.tags[slot]
        nm_frame = xta.nm_frames[slot]
        old_fm_frame = xta.fm_frames[slot]
        missing = xta.full_valid_mask & ~xta.valid[slot]
        self._copy_lines(missing, self.far, old_fm_frame, self.near,
                         nm_frame, now_ns)
        counts["migrations.lines_fetched"] += popcount(missing)

        self.remap.assign_to_near(sector, nm_frame)
        self._metadata_access(sector, True, now_ns, critical=False)
        if self.free_fm.push(old_fm_frame):
            self._metadata_access(old_fm_frame, True, now_ns, critical=False)
        self.frames.claim_for_flat(nm_frame)

    def _evict_sector_to_fm(self, slot: int, now_ns: float,
                            verdict: MigrationVerdict) -> None:
        """Write dirty lines back to the sector's FM home and free the frame."""
        counts = self._counts
        counts["evictions.to_fm"] += 1.0
        counts[f"evictions.{verdict.value}"] += 1.0
        xta = self.xta
        dirty = xta.dirty[slot]
        self._copy_lines(dirty, self.near, xta.nm_frames[slot], self.far,
                         xta.fm_frames[slot], now_ns)
        counts["evictions.lines_written_back"] += popcount(dirty)
        self.frames.release_to_pool(xta.nm_frames[slot])

    # ------------------------------------------------------------------
    # NM allocation (Figure 8)
    # ------------------------------------------------------------------
    def _obtain_cache_frame(self, now_ns: float) -> int:
        frame = self.frames.take_from_pool()
        if frame is not None:
            return frame
        return self._swap_allocate(now_ns)

    def _swap_allocate(self, now_ns: float) -> int:
        """Steal a flat NM frame by swapping its sector out to a free FM frame."""
        for candidate in self.frames.victim_candidates():
            # Inverted remap lookup to learn which sector lives there.
            self._metadata_access(candidate, False, now_ns, critical=False)
            victim_sector = self.remap.sector_at_nm_frame(candidate)
            if victim_sector >= 0 and self.xta.probe(victim_sector) is not None:
                # Sectors present in the DRAM cache must not be swapped out.
                self._counts["allocation.skipped_in_cache"] += 1.0
                continue

            self._counts["allocation.swaps"] += 1.0
            fm_frame, spilled = self.free_fm.pop()
            if spilled:
                self._metadata_access(fm_frame, False, now_ns, critical=False)
            if victim_sector >= 0:
                # Copy the whole victim sector from NM to the free FM frame.
                self.near.transfer_block(candidate * self.sector_bytes,
                                         self.sector_bytes, False, now_ns,
                                         demand=False)
                self.far.transfer_block(fm_frame * self.sector_bytes,
                                        self.sector_bytes, True, now_ns,
                                        demand=False)
                self.remap.assign_to_far(victim_sector, fm_frame)
                self._metadata_access(victim_sector, True, now_ns,
                                      critical=False)
            else:
                # Defensive: an unmapped frame can be adopted without a swap,
                # and the free FM frame goes back on the stack.
                self.free_fm.push(fm_frame)
            self.frames.adopt(candidate)
            return candidate
        raise RuntimeError("no near-memory frame available for the DRAM cache")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def extra_stats(self, stats: Stats) -> None:
        stats.merge(self.counters)
        # Every XTA hit is a line hit or a line miss, and only those are
        # counted per reference.
        hits = self.counters["line.hits"] + self.counters["line.misses"]
        if hits:
            stats.set("xta.hits", hits)
        lookups = hits + self.counters["xta.misses"]
        stats.set("xta.hit_rate", hits / lookups if lookups else 0.0)
        stats.set("xta.allocated", self.xta.allocated_entries())
        stats.set("policy.migrations", self.policy.stats.migrations)
        stats.set("policy.denied_counter", self.policy.stats.denied_by_counter)
        stats.set("policy.denied_bandwidth", self.policy.stats.denied_by_bandwidth)
        stats.set("frames.pool", self.frames.pool_size)
        stats.set("frames.swap_allocations", self.frames.swap_allocations)
        stats.set("free_fm_stack.depth", len(self.free_fm))
        stats.set("free_fm_stack.max_depth", self.free_fm.max_depth)
        stats.set("sectors_in_nm", self.remap.count_in_near())
