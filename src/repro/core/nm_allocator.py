"""Near-memory frame bookkeeping for Hybrid2 (Section 3.5, Figure 8).

The near memory is split — logically, never physically — into

* a small reserved region for the remapping metadata,
* an initial carve-out that seeds the DRAM cache's data frames at boot, and
* the remaining frames, which are part of the flat address space.

Because of indirection, any frame can end up backing DRAM-cache data or
holding a flat-space sector over time.  :class:`NMFramePool` tracks which
frames the cache currently owns (free pool + frames backing cached sectors)
and the FIFO "NM counter" the DCMC step sweeps for a swap victim when a
new cache frame must be carved out of the flat space.
"""

from __future__ import annotations

from typing import List, Set


class NMFramePool:
    """Tracks ownership of near-memory frames (sector granularity).

    The state is plain and public, and the DCMC step reads and writes it
    directly: the step takes a frame from ``pool`` or, when the pool is
    empty, sweeps ``usable`` from ``fifo_index`` for a frame to swap out
    of the flat space, and hands frames back on evictions and
    migrations.
    """

    def __init__(self, total_frames: int, metadata_frames: int,
                 carveout_frames: int) -> None:
        if metadata_frames + carveout_frames > total_frames:
            raise ValueError(
                "metadata + carve-out frames exceed the near memory "
                f"({metadata_frames} + {carveout_frames} > {total_frames})")
        self.total_frames = total_frames
        self.metadata_frames = metadata_frames
        self.carveout_frames = carveout_frames

        first_usable = metadata_frames
        #: every frame outside the metadata region, in FIFO order
        self.usable: List[int] = list(range(first_usable, total_frames))
        #: frames currently free for the DRAM cache to use (a stack)
        self.pool: List[int] = list(range(first_usable,
                                          first_usable + carveout_frames))
        #: frames the cache owns (free pool + frames backing cached sectors)
        self.cache_owned: Set[int] = set(self.pool)
        #: the NM counter (Section 3.5): the next ``usable`` index the
        #: swap allocator examines; it wraps around and never resets
        self.fifo_index = 0
        #: frames taken from the flat space by a swap
        self.swap_allocations = 0

    # ------------------------------------------------------------------
    # static partition
    # ------------------------------------------------------------------
    @property
    def flat_frames(self) -> List[int]:
        """Frames initially part of the flat address space."""
        start = self.metadata_frames + self.carveout_frames
        return list(range(start, self.total_frames))

    @property
    def usable_frames(self) -> int:
        return len(self.usable)

    # ------------------------------------------------------------------
    # accounting / invariants
    # ------------------------------------------------------------------
    @property
    def pool_size(self) -> int:
        return len(self.pool)

    @property
    def cache_owned_count(self) -> int:
        return len(self.cache_owned)

    @property
    def backing_count(self) -> int:
        """Frames currently backing cached sectors (owned but not free)."""
        return len(self.cache_owned) - len(self.pool)

    def check_invariants(self) -> bool:
        """The free pool is always a subset of the cache-owned frames and no
        metadata frame is ever handed out."""
        if not set(self.pool) <= self.cache_owned:
            return False
        return all(f >= self.metadata_frames for f in self.cache_owned)
