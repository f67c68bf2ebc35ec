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
  cache frame (2b), swapping a flat sector out of NM when the frame pool
  is empty (Figure 8).

All of it is one closure, :meth:`DCMC.step`, bound once per run over the
XTA's lists, the remap table's columns, the frame pool's state and the
NM/FM DRAM kernels.  Every DRAM access runs on the bound kernels except
case 2b's demand fill, which keeps the
:class:`~repro.memory.controller.MemoryController` methods: the repo
benchmark's traced run wraps them and requires block transfers in every
Hybrid2 cell.  The migration decision stays in
:class:`~repro.core.policy.MigrationPolicy`.
"""

from __future__ import annotations

from ..common import LINE_SIZE, popcount
from ..memory.controller import MemoryController
from ..memory.kernels import KIND_DEMAND, KIND_METADATA
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
        #: The counters' dict: the step adds to it directly.
        self._counts = self.counters._counters

    # ------------------------------------------------------------------
    # public properties
    # ------------------------------------------------------------------
    @property
    def flat_capacity_bytes(self) -> int:
        """Main-memory capacity Hybrid2 exposes to software."""
        return self.num_flat_sectors * self.sector_bytes

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

    def step(self):
        """Compile the request path of Figure 7 into the step of
        :class:`~repro.core.hybrid2.Hybrid2System`, which takes one
        reference's :meth:`columns` values.

        The step works on the XTA's lists, the remap table's columns, the
        frame pool's state, the Free-FM-Stack and the counter dict, and
        issues its DRAM traffic on the NM line kernel and the two block
        kernels, the memories' own pairs
        (:func:`~repro.memory.kernels.make_kernels`).  Runtime frames are
        mapped inline with
        :meth:`~repro.memory.controller.MemoryController.locate`'s slot
        table.  Every request served from NM issues one NM demand line
        and no other request does, so the system derives the NM-served
        count from the near memory and the step does not keep one.

        * An XTA hit does the ``slot_of`` probe, the LRU touch and the
          access counter of a non-migrated sector, then either one NM
          burst (1a, line hit) or the line fill (1b, line miss): the
          demand read of the DRAM-cache line from FM and its background
          install in NM.
        * An XTA miss (2) reads the remap table (a critical NM metadata
          access), takes the set's first free way or else its LRU way,
          evicting that way's sector: an NM-resident sector just leaves;
          an FM sector is migrated (Figure 10: its missing lines fetched
          from FM, its frame made the sector's flat home) or evicted
          (Figure 9: its dirty lines written back to FM, its frame back
          in the pool) as :meth:`MigrationPolicy.decide
          <repro.core.policy.MigrationPolicy.decide>` says.  A sector
          homed in NM is then linked and served from NM (2a).  A sector
          homed in FM (2b) gets a cache frame from the pool or, when the
          pool is empty, from the flat space (Figure 8): the FIFO sweep
          over the usable frames skips cache-owned frames and frames
          whose sector is linked in the XTA, and swaps the first other
          frame's sector out to a free FM frame.  Each run of contiguous
          lines moves as one block read and one block write.
        * Case 2b's demand fill (the FM read of the line and its NM
          install) is the one transfer left on
          :meth:`MemoryController.transfer_block
          <repro.memory.controller.MemoryController.transfer_block>`:
          the repo benchmark's traced run counts the controller's block
          transfers and requires them in every Hybrid2 cell.
        """
        near_line = self.near.line_access
        near_block = self.near.block_transfer
        far_block = self.far.block_transfer
        n_slots, n_period, n_span, n_stride = self.near.address_map
        near_transfer = self.near.transfer_block
        far_transfer = self.far.transfer_block
        xta = self.xta
        slot_of = xta.slot_of
        tags = xta.tags
        valid = xta.valid
        dirty = xta.dirty
        access_counters = xta.counters
        nm_frames = xta.nm_frames
        fm_frames = xta.fm_frames
        lru = xta.lru
        ticks = xta.ticks
        num_sets = xta.num_sets
        ways = xta.ways
        counter_max = xta.counter_max
        full = xta.full_valid_mask
        remap = self.remap
        home_in_near = remap._in_near
        home_frame = remap._frame
        inverse_nm = remap._inverse_nm
        assign_to_near = remap.assign_to_near
        assign_to_far = remap.assign_to_far
        record_inverse_nm = remap.record_inverse_nm
        frames = self.frames
        pool = frames.pool
        cache_owned = frames.cache_owned
        usable = frames.usable
        free_fm = self.free_fm
        policy = self.policy
        decide = policy.decide
        note_demand_fm_access = policy.note_demand_fm_access
        counters = self._counts
        xta_lat = self.params.xta_latency_ns
        sector_bytes = self.sector_bytes
        line_bytes = self.dram_line_bytes
        metadata_span = self._metadata_span
        migrate_verdict = MigrationVerdict.MIGRATE
        evicted_by = {verdict: f"evictions.{verdict.value}"
                      for verdict in MigrationVerdict}

        if self.model_metadata:
            def metadata(key: int, is_write: bool, now_ns: float) -> float:
                """One remap-metadata access to NM; its latency."""
                counters["metadata.accesses"] += 1.0
                address = key * LINE_SIZE % metadata_span
                return near_line(n_slots[address % n_period // n_span],
                                 address // n_stride, is_write, now_ns,
                                 KIND_METADATA)
        else:
            def metadata(key: int, is_write: bool, now_ns: float) -> float:
                """No-Remap: metadata accesses are free."""
                return 0.0

        def copy_lines(mask, read_block, read_frame, write_block,
                       write_frame, now_ns):
            """Copy the lines set in ``mask`` between two frames as
            background traffic, one block read and one block write per
            run of contiguous lines, runs in line order.  The two devices
            keep separate state and a block streams its lines in order,
            so every counter and float equals copying line by line."""
            read_base = read_frame * sector_bytes
            write_base = write_frame * sector_bytes
            line = 0
            while mask:
                # Skip the clear lines below the next run, then measure it.
                skip = (mask & -mask).bit_length() - 1
                mask >>= skip
                line += skip
                run = (~mask & (mask + 1)).bit_length() - 1
                offset = line * line_bytes
                read_block(read_base + offset, run * line_bytes, False,
                           now_ns, False)
                write_block(write_base + offset, run * line_bytes, True,
                            now_ns, False)
                mask >>= run
                line += run

        def xta_miss(sector, line, offset, is_write, now_ns):
            # The remap-table read is on the critical path: the sector's
            # location must be known before the data can be fetched.
            latency = xta_lat + metadata(sector, False, now_ns)
            in_near = home_in_near[sector]
            home = home_frame[sector]

            # The victim: the set's first free way (LRU stamp -1, never
            # touched) if it has one, else its least recently used way.
            base = sector % num_sets * ways
            end = base + ways
            stamps = lru[base:end]
            slot = base + stamps.index(min(stamps))
            evicted = tags[slot]
            if evicted >= 0:
                # The set is full: evict the way's sector.
                nm_frame = nm_frames[slot]
                fm_frame = fm_frames[slot]
                if fm_frame < 0:
                    # The sector already lives in NM; nothing moves.
                    counters["evictions.nm_resident"] += 1.0
                else:
                    # Saturated counters take no part in the comparison.
                    others = (access_counters[base:slot]
                              + access_counters[slot + 1:end])
                    verdict = decide(
                        access_counters[slot],
                        [count for count in others if count < counter_max],
                        popcount(valid[slot]), popcount(dirty[slot]), now_ns)
                    if verdict is migrate_verdict:
                        # Figure 10: complete the sector in NM and make
                        # its frame the sector's permanent home.
                        counters["migrations"] += 1.0
                        missing = full & ~valid[slot]
                        copy_lines(missing, far_block, fm_frame, near_block,
                                   nm_frame, now_ns)
                        counters["migrations.lines_fetched"] += \
                            popcount(missing)
                        assign_to_near(evicted, nm_frame)
                        metadata(evicted, True, now_ns)
                        if free_fm.push(fm_frame):
                            metadata(fm_frame, True, now_ns)
                        cache_owned.discard(nm_frame)
                    else:
                        # Figure 9: write the dirty lines back to the FM
                        # home and free the frame.
                        counters["evictions.to_fm"] += 1.0
                        counters[evicted_by[verdict]] += 1.0
                        copy_lines(dirty[slot], near_block, nm_frame,
                                   far_block, fm_frame, now_ns)
                        counters["evictions.lines_written_back"] += \
                            popcount(dirty[slot])
                        pool.append(nm_frame)
                del slot_of[evicted]

            if in_near:
                # 2a: the sector already lives in NM.  It shows every line
                # valid and dirty and has no FM pointer (Section 3.4).
                counters["fills.sector_in_nm"] += 1.0
                frame, fm_home, valid_mask, dirty_mask = home, -1, full, full
            else:
                # 2b: the sector lives in FM; it gets a cache frame and
                # its demand line.
                counters["fills.sector_in_fm"] += 1.0
                note_demand_fm_access(now_ns)
                frame = pool.pop() if pool else steal_flat_frame(now_ns)
                fm_home = home
                valid_mask = 1 << line
                dirty_mask = valid_mask if is_write else 0
            slot_of[sector] = slot
            tags[slot] = sector
            access_counters[slot] = 0
            nm_frames[slot] = frame
            fm_frames[slot] = fm_home
            valid[slot] = valid_mask
            dirty[slot] = dirty_mask
            lru[slot] = next(ticks)

            if in_near:
                address = frame * sector_bytes + offset
                return latency + near_line(
                    n_slots[address % n_period // n_span],
                    address // n_stride, is_write, now_ns, KIND_DEMAND)
            # The inverted remap table learns the sector now (Section
            # 3.4), so the NM allocator can always resolve this frame.
            record_inverse_nm(frame, sector)
            metadata(frame, True, now_ns)
            line_offset = line * line_bytes
            latency += far_transfer(home * sector_bytes + line_offset,
                                    line_bytes, False, now_ns, True)
            near_transfer(frame * sector_bytes + line_offset, line_bytes,
                          True, now_ns, False)
            return latency

        def steal_flat_frame(now_ns):
            """Figure 8: swap a flat sector out of NM to a free FM frame
            and hand its frame to the DRAM cache."""
            count = len(usable)
            for _ in range(2 * count):
                # The NM counter: a FIFO sweep that resumes where the
                # previous allocation stopped.
                candidate = usable[frames.fifo_index % count]
                frames.fifo_index += 1
                if candidate in cache_owned:
                    continue
                # Inverted remap lookup to learn which sector lives there.
                metadata(candidate, False, now_ns)
                victim = inverse_nm.get(candidate, -1)
                if victim in slot_of:
                    # Sectors present in the DRAM cache stay in NM.
                    counters["allocation.skipped_in_cache"] += 1.0
                    continue
                counters["allocation.swaps"] += 1.0
                fm_frame, spilled = free_fm.pop()
                if spilled:
                    metadata(fm_frame, False, now_ns)
                if victim >= 0:
                    # Copy the whole victim sector from NM to FM.
                    near_block(candidate * sector_bytes, sector_bytes,
                               False, now_ns, False)
                    far_block(fm_frame * sector_bytes, sector_bytes, True,
                              now_ns, False)
                    assign_to_far(victim, fm_frame)
                    metadata(victim, True, now_ns)
                else:
                    # Defensive: an unmapped frame is adopted without a
                    # swap, and the free FM frame goes back on the stack.
                    free_fm.push(fm_frame)
                cache_owned.add(candidate)
                frames.swap_allocations += 1
                return candidate
            raise RuntimeError(
                "no near-memory frame available for the DRAM cache")

        def step(sector: int, line: int, offset: int, is_write: bool,
                 now_ns: float) -> float:
            slot = slot_of.get(sector)
            if slot is None:
                counters["xta.misses"] += 1.0
                return xta_miss(sector, line, offset, is_write, now_ns)
            lru[slot] = next(ticks)
            fm_frame = fm_frames[slot]
            bit = 1 << line
            if fm_frame >= 0:
                # Only non-migrated sectors count accesses (Section 3.7.1).
                if access_counters[slot] < counter_max:
                    access_counters[slot] += 1
                if not valid[slot] & bit:
                    # 1b: fetch the line from FM, install it in NM.
                    counters["line.misses"] += 1.0
                    note_demand_fm_access(now_ns)
                    line_offset = line * line_bytes
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
            address = nm_frames[slot] * sector_bytes + offset
            return xta_lat + near_line(n_slots[address % n_period // n_span],
                                       address // n_stride, is_write, now_ns,
                                       0)

        return step

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
