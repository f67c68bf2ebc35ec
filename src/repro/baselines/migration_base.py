"""Shared machinery for the flat-address-space migration baselines.

MemPod, LGM and Chameleon all expose the near memory as part of a flat
address space and move 2 KB segments between near and far memory.  They
share:

* a segment-granularity remap table with an on-chip **remap cache** whose
  capacity matches Hybrid2's XTA (the paper equalises these for fairness);
* a swap primitive (a migration is always an exchange, which is the
  fundamental cost difference against caches).

MemPod and LGM also share interval-based bookkeeping: they migrate at
50 us interval boundaries, through the remap-table step of
:class:`IntervalMigrationSystem`.  Its subclasses implement
:meth:`IntervalMigrationSystem._note_hook` (how far-memory accesses feed
the selection policy) and :meth:`IntervalMigrationSystem._interval_end`
(which segments to migrate when an interval expires).  Chameleon swaps
on its own counters and has a step of its own.

Paper anchor: the shared mechanics of the migration class the paper
contrasts with caches throughout — swap cost (Section 2), equalised
translation budgets (Section 5 methodology), and the flat capacity
advantage (Figures 12-13).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..common import LINE_SIZE
from ..core.remap import RemapTable
from ..params import SystemConfig
from ..stats import Stats
from .base import MemorySystem

#: Migration granularity shared by the baselines (2 KB, as in the paper).
SEGMENT_BYTES = 2048

#: The paper's interval of MemPod and LGM (50 us), for an unscaled run.
INTERVAL_NS = 50_000.0


class RemapCache:
    """On-chip cache of remap-table entries (LRU over segment numbers).

    :meth:`IntervalMigrationSystem._step` does the lookup inline and counts its
    hits and misses here; a swap calls :meth:`refresh`."""

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, capacity)
        self._entries: OrderedDict[int, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def refresh(self, segment: int) -> None:
        """Make sure the entry for ``segment`` is present (after a swap)."""
        self._entries[segment] = True
        self._entries.move_to_end(segment)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of translations resolved without touching memory."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MigrationSystem(MemorySystem):
    """Base class of the flat-space migration designs."""

    name = "MIGRATION"
    segment_bytes = SEGMENT_BYTES
    #: Whether remap metadata lives in memory (True) or fits on chip
    #: (False, e.g. group-based Chameleon).
    remap_in_memory = True

    def __init__(self, config: SystemConfig, seed: int = 17) -> None:
        super().__init__(config)
        self._make_controllers(config.near, config.far)
        self.nm_frames = config.near.capacity_bytes // self.segment_bytes
        self.fm_frames = config.far.capacity_bytes // self.segment_bytes
        self.num_segments = self.nm_frames + self.fm_frames
        self.remap = RemapTable(self.num_segments, list(range(self.nm_frames)),
                                self.fm_frames, seed=seed)
        self.remap_cache = RemapCache(config.hybrid2.cache_sectors)
        self._fifo_victim = 0
        self.migrations = 0
        self.swap_bytes = 0

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    @property
    def flat_capacity_bytes(self) -> int:
        """NM + FM — migration exposes both as main memory (Figure 12)."""
        return self.num_segments * self.segment_bytes

    # ------------------------------------------------------------------
    # pieces shared by the subclasses
    # ------------------------------------------------------------------
    def _select_nm_victim(self, protected: Optional[set] = None) -> Optional[int]:
        """FIFO choice of an NM frame whose segment will be swapped out."""
        protected = protected or set()
        for _ in range(self.nm_frames):
            frame = self._fifo_victim % self.nm_frames
            self._fifo_victim += 1
            segment = self.remap.sector_at_nm_frame(frame)
            if segment < 0 or segment in protected:
                continue
            return frame
        return None

    def _swap_into_nm(self, segment: int, now_ns: float,
                      protected: Optional[set] = None,
                      fm_read_bytes: Optional[int] = None) -> bool:
        """Swap ``segment`` (currently in FM) with a FIFO-chosen NM victim.

        ``fm_read_bytes`` lets a subclass reduce the amount read from far
        memory (LGM skips lines that are present in the LLC).  Returns False
        when no victim was available or the segment is already in NM.
        """
        in_near, fm_frame = self.remap.lookup(segment)
        if in_near:
            return False
        victim_frame = self._select_nm_victim(protected)
        if victim_frame is None:
            return False
        victim_segment = self.remap.sector_at_nm_frame(victim_frame)

        read_bytes = fm_read_bytes if fm_read_bytes is not None else self.segment_bytes
        read_bytes = max(LINE_SIZE, min(self.segment_bytes, read_bytes))
        # Incoming segment: FM -> NM.
        self.far.transfer_block(fm_frame * self.segment_bytes, read_bytes,
                                False, now_ns, demand=False)
        self.near.transfer_block(victim_frame * self.segment_bytes,
                                 self.segment_bytes, True, now_ns, demand=False)
        # Victim segment: NM -> FM (a swap always writes the victim back).
        self.near.transfer_block(victim_frame * self.segment_bytes,
                                 self.segment_bytes, False, now_ns, demand=False)
        self.far.transfer_block(fm_frame * self.segment_bytes,
                                self.segment_bytes, True, now_ns, demand=False)
        self.swap_bytes += read_bytes + 3 * self.segment_bytes

        self.remap.assign_to_near(segment, victim_frame)
        self.remap.assign_to_far(victim_segment, fm_frame)
        if self.remap_in_memory:
            self.remap_cache.refresh(segment)
            self.remap_cache.refresh(victim_segment)
            # Two remap-table updates (background metadata writes).
            self.near.access((segment * 8) % self.config.near.capacity_bytes,
                             True, now_ns, metadata=True)
            self.near.access((victim_segment * 8) % self.config.near.capacity_bytes,
                             True, now_ns, metadata=True)
        self.migrations += 1
        return True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _extra_stats(self, stats: Stats) -> None:
        stats.set("migrations", self.migrations)
        stats.set("swap_bytes", self.swap_bytes)
        stats.set("remap_cache.hit_rate", self.remap_cache.hit_rate)
        stats.set("segments_in_nm", self.remap.count_in_near())


class IntervalMigrationSystem(MigrationSystem):
    """Base class of MemPod and LGM: a remap-table step that migrates at
    interval boundaries."""

    def __init__(self, config: SystemConfig, seed: int = 17) -> None:
        super().__init__(config, seed=seed)
        # The paper's interval is tuned for an unscaled (1 GB NM,
        # 1 B-instruction) run; the scaled model compresses simulated
        # time, so the interval shrinks with the same factor to keep the
        # number of migration opportunities per unit of work comparable.
        self.interval_ns = max(1_000.0, INTERVAL_NS * 16 / config.scale)
        self._interval_end_ns = self.interval_ns
        self._interval_fm_accesses = 0

    def _columns(self, addresses):
        """Segment number and offset in the segment of each address, and
        the NM ``(slot, row)`` of its remap-table entry."""
        address = addresses % self.flat_capacity_bytes
        segment = address // self.segment_bytes
        return (segment, address % self.segment_bytes,
                *self.near.locate(
                    (segment * 8) % self.config.near.capacity_bytes))

    def _step(self):
        """Translate through the remap table, then serve from NM or FM.

        The step closes any expired interval first (:meth:`_interval_end`
        migrates), looks the segment up in the remap cache (a miss reads
        the remap table in NM), serves the request from the segment's
        current home; far-memory accesses also feed the selection policy
        through the :meth:`_note_hook` callable.  The home frame is runtime
        state: the step maps it inline, with
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
        cache = self.remap_cache
        entries = cache._entries
        move_to_end = entries.move_to_end
        cache_capacity = cache.capacity
        note = self._note_hook()

        def step(seg: int, off: int, meta_slot: int, meta_row: int,
                 is_write: bool, now_ns: float) -> float:
            if now_ns >= self._interval_end_ns:
                self._roll_interval(now_ns)
            if seg in entries:
                move_to_end(seg)
                cache.hits += 1
                latency = 0.0
            else:
                cache.misses += 1
                entries[seg] = True
                if len(entries) > cache_capacity:
                    entries.popitem(last=False)
                latency = near_line(meta_slot, meta_row, False, now_ns, 2)
            address = frame_col[seg] * seg_bytes + off
            if near_col[seg]:
                latency += near_line(n_slots[address % n_period // n_span],
                                     address // n_stride, is_write, now_ns, 0)
            else:
                latency += far_line(f_slots[address % f_period // f_span],
                                    address // f_stride, is_write, now_ns, 0)
                self._interval_fm_accesses += 1
                note(seg, off)
            return latency

        return step

    def _roll_interval(self, now_ns: float) -> None:
        """Close the interval that expired before ``now_ns``."""
        self._interval_end(now_ns)
        self._interval_fm_accesses = 0
        while self._interval_end_ns <= now_ns:
            self._interval_end_ns += self.interval_ns

    def migration_budget_swaps(self) -> int:
        """Upper bound on swaps this interval, proportional to the interval's
        demand far-memory traffic.

        A swap moves two whole segments (about ``4 * segment_bytes`` of
        traffic); bounding swap traffic by the interval's demand FM traffic
        keeps the schemes' aggressiveness consistent across the capacity
        scaling of this model (the unscaled designs are implicitly bounded
        the same way by what their counters can observe per interval).
        """
        demand_bytes = self._interval_fm_accesses * LINE_SIZE
        return max(1, demand_bytes // (4 * self.segment_bytes))

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _note_hook(self):
        """Return the ``(segment, offset)`` callable the step calls on every
        far-memory access to feed the selection policy."""
        def note(segment, offset):
            pass

        return note

    def _interval_end(self, now_ns: float) -> None:
        """Perform end-of-interval migrations (MemPod, LGM)."""
