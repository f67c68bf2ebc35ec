"""Tests for the near-memory frame pool (Section 3.5, Figure 8).

The pool is plain state; the DCMC step takes, returns and steals its
frames, so the allocation rules are driven through a Hybrid2 system with
a one-set, 16-way XTA over 16 carve-out frames.
"""

import pytest

from repro.core.hybrid2 import Hybrid2System
from repro.core.nm_allocator import NMFramePool
from repro.params import Hybrid2Params, make_config


@pytest.fixture
def pool():
    # 16 frames: 2 metadata, 4 carve-out, 10 flat.
    return NMFramePool(total_frames=16, metadata_frames=2, carveout_frames=4)


def small_system(**kwargs):
    """A Hybrid2 system whose XTA is one set of 16 ways, as large as its
    16-frame carve-out."""
    config = make_config(nm_gb=1, fm_gb=16, scale=1024,
                         hybrid2=Hybrid2Params(dram_cache_bytes=64 * 1024))
    return Hybrid2System(config, **kwargs)


def fm_sectors(system):
    """The sectors whose remap-table home is in FM, in address order."""
    remap = system.dcmc.remap
    return (s for s in range(remap.num_sectors) if not remap.lookup(s)[0])


def read(system, sector, now=0.0):
    """One read of line 0 of ``sector`` through the step; its XTA slot."""
    system.access(sector * system.dcmc.sector_bytes, False, now)
    return system.dcmc.xta.slot_of[sector]


def fill_cache(system):
    """Link FM sectors until the pool is empty; return them in order."""
    frames = system.dcmc.frames
    sectors = fm_sectors(system)
    linked = []
    while frames.pool:
        linked.append(next(sectors))
        read(system, linked[-1], 10.0 * len(linked))
    return linked, sectors


def test_partition(pool):
    assert pool.flat_frames == list(range(6, 16))
    assert pool.pool_size == 4
    assert pool.usable_frames == 14
    assert pool.check_invariants()


def test_oversized_reservation_rejected():
    with pytest.raises(ValueError):
        NMFramePool(total_frames=4, metadata_frames=3, carveout_frames=3)


def test_take_and_release():
    """A 2b miss takes its cache frame from the pool; evicting the sector
    to FM (Figure 9) puts the frame back, and the next 2b miss takes it
    again."""
    system = small_system(migration_mode="none")
    frames = system.dcmc.frames
    xta = system.dcmc.xta
    carveout = frames.pool_size
    sectors = fm_sectors(system)
    first = next(sectors)
    frame = xta.nm_frames[read(system, first)]
    assert frame in frames.cache_owned
    assert frames.pool_size == carveout - 1 and frames.backing_count == 1
    for t in range(xta.ways - 1):
        read(system, next(sectors), 10.0 * (t + 1))
    assert frames.pool_size == 0
    newcomer = next(sectors)
    slot = read(system, newcomer, 1000.0)        # evicts ``first``, the LRU
    assert first not in xta.slot_of
    assert xta.nm_frames[slot] == frame          # released, then taken
    assert frames.pool_size == 0 and frames.backing_count == carveout
    assert frames.swap_allocations == 0 and frames.check_invariants()


def test_take_from_empty_pool_returns_none():
    """Once migrations have used up the pool, a 2b miss steals a flat
    frame instead (Figure 8): a swap."""
    system = small_system(migration_mode="all")
    frames = system.dcmc.frames
    counters = system.dcmc.counters
    _, sectors = fill_cache(system)
    assert frames.swap_allocations == 0
    read(system, next(sectors), 1000.0)          # migrates the LRU sector
    assert counters.get("migrations") == 1
    assert frames.pool_size == 0
    assert frames.swap_allocations == 1 == counters.get("allocation.swaps")


def test_claim_for_flat_removes_ownership():
    """A migration (Figure 10) makes the sector's cache frame its flat
    home: the frame leaves the cache's ownership for good."""
    system = small_system(migration_mode="all")
    dcmc = system.dcmc
    frames = dcmc.frames
    sectors = fm_sectors(system)
    linked = [next(sectors) for _ in range(dcmc.xta.ways - 1)]
    for t, sector in enumerate(linked):
        read(system, sector, 10.0 * t)
    # An NM-homed sector fills the set without taking a frame, so the
    # next miss finds one left in the pool and swaps nothing.
    read(system, next(s for s in range(dcmc.num_flat_sectors)
                      if dcmc.remap.lookup(s)[0]), 500.0)
    assert frames.pool_size == 1
    victim = linked[0]
    frame = dcmc.xta.nm_frames[dcmc.xta.slot_of[victim]]
    owned = frames.cache_owned_count
    read(system, next(sectors), 1000.0)
    assert dcmc.remap.lookup(victim) == (1, frame)
    assert dcmc.remap.sector_at_nm_frame(frame) == victim
    assert frame not in frames.cache_owned
    assert frames.cache_owned_count == owned - 1
    assert frames.pool_size == frames.swap_allocations == 0
    assert frames.check_invariants()


def test_adopt_flat_frame():
    """A swap moves the flat sector of the stolen frame out to a free FM
    frame and the stolen frame then backs the new cached sector."""
    system = small_system(migration_mode="all")
    dcmc = system.dcmc
    frames = dcmc.frames
    _, sectors = fill_cache(system)
    frames.fifo_index = frames.carveout_frames     # at the first flat frame
    stolen = frames.flat_frames[0]
    owner = dcmc.remap.sector_at_nm_frame(stolen)
    assert stolen not in frames.cache_owned and owner >= 0
    newcomer = next(sectors)
    slot = read(system, newcomer, 1000.0)
    assert dcmc.xta.nm_frames[slot] == stolen
    assert stolen in frames.cache_owned
    in_near, fm_frame = dcmc.remap.lookup(owner)
    assert not in_near and dcmc.remap.sector_at_fm_frame(fm_frame) == owner
    assert frames.swap_allocations == 1
    assert dcmc.remap.check_consistency() and frames.check_invariants()


def test_victim_candidates_skip_cache_owned():
    """The FIFO sweep starts at the first usable frame and steps over
    every cache-owned carve-out frame without a metadata access.  The
    first frame it may steal is the one the miss's own migration has just
    given to the flat space: the migrated sector is no longer linked in
    the XTA, so it is swapped straight out to FM."""
    system = small_system(migration_mode="all")
    dcmc = system.dcmc
    frames = dcmc.frames
    linked, sectors = fill_cache(system)
    assert frames.fifo_index == 0
    metadata = dcmc.counters.get("metadata.accesses")
    migrated = dcmc.xta.nm_frames[dcmc.xta.slot_of[linked[0]]]
    newcomer = next(sectors)
    read(system, newcomer, 1000.0)
    assert frames.fifo_index == frames.carveout_frames
    assert migrated == frames.usable[frames.carveout_frames - 1]
    assert dcmc.xta.nm_frames[dcmc.xta.slot_of[newcomer]] == migrated
    assert not dcmc.remap.lookup(linked[0])[0]
    # Remap read, migration remap write, inverse read of the stolen frame,
    # the swapped sector's remap write and the new frame's inverse write.
    assert dcmc.counters.get("metadata.accesses") == metadata + 5


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Figure 8 steal-back: the FIFO sweep of a miss may steal the frame "
    "that miss's own migration has just given to the flat space, and "
    "swaps the migrated sector straight back to FM"))
def test_a_miss_keeps_the_sector_it_migrated_in_nm():
    """The miss of ``test_victim_candidates_skip_cache_owned`` migrates
    the XTA victim ``linked[0]`` into NM; the same miss's frame steal must
    not undo that migration with a swap back to FM."""
    system = small_system(migration_mode="all")
    dcmc = system.dcmc
    linked, sectors = fill_cache(system)
    read(system, next(sectors), 1000.0)
    assert dcmc.remap.lookup(linked[0])[0]


def test_victim_candidates_fifo_wraps_and_resumes():
    """Each swap resumes the sweep where the previous one stopped, and
    the NM counter wraps around the usable frames."""
    system = small_system(migration_mode="all")
    frames = system.dcmc.frames
    xta = system.dcmc.xta
    _, sectors = fill_cache(system)
    frames.fifo_index = frames.usable_frames - 1
    first = xta.nm_frames[read(system, next(sectors), 1000.0)]
    assert first == frames.usable[-1]
    second = xta.nm_frames[read(system, next(sectors), 1010.0)]
    assert second < first
    assert frames.fifo_index == frames.usable_frames + frames.usable.index(
        second) + 1
    assert frames.swap_allocations == 2


def test_victim_candidates_terminates_when_everything_owned():
    """With no frame left to steal, the sweep gives up after two passes
    over the usable frames instead of looping forever."""
    system = small_system()
    frames = system.dcmc.frames
    frames.cache_owned.update(frames.usable)
    frames.pool.clear()
    with pytest.raises(RuntimeError):
        read(system, next(fm_sectors(system)))
    assert frames.fifo_index == 2 * frames.usable_frames
