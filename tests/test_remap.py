"""Tests for the remap table, inverted remap table and Free-FM-Stack."""

import tracemalloc

import numpy as np
import pytest

from repro.core.remap import FreeFMStack, RemapTable


@pytest.fixture
def table():
    # 4 NM flat frames (ids 10..13) + 12 FM frames -> 16 flat sectors.
    return RemapTable(16, nm_flat_frames=[10, 11, 12, 13], fm_frames=12, seed=5)


def test_initial_mapping_covers_every_sector(table):
    assert table.check_consistency()
    assert table.count_in_near() == 4


def test_initial_mapping_is_random_but_deterministic():
    a = RemapTable(16, [10, 11, 12, 13], 12, seed=5)
    b = RemapTable(16, [10, 11, 12, 13], 12, seed=5)
    c = RemapTable(16, [10, 11, 12, 13], 12, seed=6)
    assert [a.lookup(s) for s in range(16)] == [b.lookup(s) for s in range(16)]
    assert [a.lookup(s) for s in range(16)] != [c.lookup(s) for s in range(16)]


def loop_initial_mapping(num_sectors, nm_flat_frames, fm_frames, seed):
    """The per-sector loop ``RemapTable.__init__`` replaced, kept here as
    the oracle for its vectorized construction."""
    order = np.random.default_rng(seed).permutation(num_sectors)
    in_near = [0] * num_sectors
    frame = [0] * num_sectors
    inverse_nm = {}
    inverse_fm = [-1] * fm_frames
    nm_count = len(nm_flat_frames)
    for i, sector in enumerate(order):
        sector = int(sector)
        if i < nm_count:
            in_near[sector] = 1
            frame[sector] = nm_flat_frames[i]
            inverse_nm[nm_flat_frames[i]] = sector
        else:
            in_near[sector] = 0
            frame[sector] = i - nm_count
            inverse_fm[i - nm_count] = sector
    return in_near, frame, inverse_nm, inverse_fm


@pytest.mark.parametrize("nm_flat_frames,fm_frames,seed", [
    ([10, 11, 12, 13], 12, 5),
    ([], 9, 1),                                   # cache-only: no NM home
    (list(range(40, 0, -1)), 0, 3),               # NM only, frames reversed
    (list(range(7, 4000, 3)), 20_000, 17),        # DCMC-sized, strided
])
def test_initial_mapping_matches_the_per_sector_loop(nm_flat_frames,
                                                     fm_frames, seed):
    num_sectors = len(nm_flat_frames) + fm_frames
    table = RemapTable(num_sectors, nm_flat_frames, fm_frames, seed=seed)
    in_near, frame, inverse_nm, inverse_fm = loop_initial_mapping(
        num_sectors, nm_flat_frames, fm_frames, seed)
    assert ([table.lookup(s) for s in range(num_sectors)]
            == list(zip(in_near, frame)))
    assert all(type(value) is int for s in range(num_sectors)
               for value in table.lookup(s))
    assert table._inverse_nm == inverse_nm
    assert ([table.sector_at_nm_frame(f) for f in nm_flat_frames]
            == [inverse_nm[f] for f in nm_flat_frames])
    assert ([table.sector_at_fm_frame(f) for f in range(fm_frames)]
            == inverse_fm)
    assert table.count_in_near() == len(nm_flat_frames)
    assert table.check_consistency()


def test_footprint_stays_under_24_bytes_per_sector():
    """The per-sector columns are typed arrays, so a table of ~1.1M
    sectors at the bench's 1:16 NM:FM split retains about 22.4 B per
    sector: 1 (``_in_near``) + 8 (``_frame``) + 8 x 16/17
    (``_inverse_fm``) + ~5.9 for the inverse-NM dict over the NM
    sixteenth.  The layout of object lists it replaced retained ~90 B.
    tracemalloc counts allocated bytes, so the figure is exact for one
    interpreter; the bound leaves room for another version's dict."""
    nm_flat_frames = list(range(1 << 16))
    fm_frames = 16 << 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = RemapTable(len(nm_flat_frames) + fm_frames, nm_flat_frames,
                           fm_frames)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / table.num_sectors < 24


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        RemapTable(10, [1, 2], 12)


def test_assign_to_near_updates_inverse(table):
    sector = next(s for s in range(16) if not table.lookup(s)[0])
    table.assign_to_near(sector, 20)
    assert table.lookup(sector) == (1, 20)
    assert table.sector_at_nm_frame(20) == sector
    assert table.check_consistency()


def test_assign_to_far_updates_inverse(table):
    sector = next(s for s in range(16) if table.lookup(s)[0])
    _, old_frame = table.lookup(sector)
    free_fm = next(f for f in range(12) if table.sector_at_fm_frame(f) == -1) \
        if any(table.sector_at_fm_frame(f) == -1 for f in range(12)) else None
    # Swap with an arbitrary FM frame by first moving its occupant to NM.
    occupant = table.sector_at_fm_frame(0)
    table.assign_to_near(occupant, old_frame)
    table.assign_to_far(sector, 0)
    assert table.lookup(sector) == (0, 0)
    assert table.sector_at_fm_frame(0) == sector
    assert table.check_consistency()


def test_swap_roundtrip_preserves_consistency(table):
    nm_sector = next(s for s in range(16) if table.lookup(s)[0])
    fm_sector = next(s for s in range(16) if not table.lookup(s)[0])
    _, nm_frame = table.lookup(nm_sector)
    _, fm_frame = table.lookup(fm_sector)
    table.assign_to_near(fm_sector, nm_frame)
    table.assign_to_far(nm_sector, fm_frame)
    assert table.lookup(fm_sector) == (1, nm_frame)
    assert table.lookup(nm_sector) == (0, fm_frame)
    assert table.check_consistency()


def test_record_inverse_nm_only_touches_inverse(table):
    sector = next(s for s in range(16) if not table.lookup(s)[0])
    location_before = table.lookup(sector)
    table.record_inverse_nm(11, sector)
    assert table.sector_at_nm_frame(11) == sector
    assert table.lookup(sector) == location_before


def test_sector_at_unknown_nm_frame(table):
    assert table.sector_at_nm_frame(999) == -1


# ---------------------------------------------------------------------------
# Free-FM-Stack
# ---------------------------------------------------------------------------
def test_stack_push_pop_lifo():
    stack = FreeFMStack(on_chip_entries=4)
    for frame in (1, 2, 3):
        assert stack.push(frame) is False       # fits on chip
    frame, spilled = stack.pop()
    assert frame == 3 and spilled is False
    assert len(stack) == 2


def test_stack_spills_beyond_on_chip_entries():
    stack = FreeFMStack(on_chip_entries=2)
    assert stack.push(1) is False
    assert stack.push(2) is False
    assert stack.push(3) is True                # third entry spills to NM
    frame, spilled = stack.pop()
    assert frame == 3 and spilled is True


def test_stack_pop_empty_raises():
    with pytest.raises(IndexError):
        FreeFMStack().pop()


def test_stack_tracks_max_depth():
    stack = FreeFMStack()
    for frame in range(5):
        stack.push(frame)
    stack.pop()
    assert stack.max_depth == 5
    assert [stack.pop()[0] for _ in range(len(stack))] == [3, 2, 1, 0]
