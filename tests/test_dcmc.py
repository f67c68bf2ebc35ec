"""Tests for the DRAM Cache Migration Controller (access path, eviction,
migration, NM allocation), driven through :class:`Hybrid2System`, whose
step is the DCMC's request path."""

import runpy
from pathlib import Path

import pytest

from repro.core.dcmc import DCMC
from repro.core.hybrid2 import Hybrid2System
from repro.memory import controller as controller_module
from repro.memory.controller import MemoryController
from repro.memory.kernels import make_kernels
from repro.params import Hybrid2Params, make_config
from repro.sim.simulator import simulate
from repro.workloads.catalog import get_workload

#: Every counter and timestamp of a controller, as the DRAM golden pins it.
controller_state = runpy.run_path(str(
    Path(__file__).resolve().parents[1] / "tools" /
    "make_dram_golden.py"))["controller_state"]


def make_dcmc(**kwargs):
    """``(config, system)``: a small Hybrid2 system; ``system.dcmc`` is the
    controller under test."""
    config = make_config(nm_gb=1, fm_gb=16, scale=1024,
                         hybrid2=Hybrid2Params(dram_cache_bytes=64 * 1024))
    return config, Hybrid2System(config, **kwargs)


def test_flat_capacity_excludes_cache_and_metadata():
    config, system = make_dcmc()
    dcmc = system.dcmc
    nm_plus_fm = config.near.capacity_bytes + config.far.capacity_bytes
    assert dcmc.flat_capacity_bytes < nm_plus_fm
    assert dcmc.flat_capacity_bytes > config.far.capacity_bytes


def test_cache_only_flat_capacity_is_far_memory():
    config, system = make_dcmc(cache_only=True, model_metadata=False)
    assert system.dcmc.flat_capacity_bytes == config.far.capacity_bytes


def test_first_access_is_xta_miss_then_line_hit():
    _, system = make_dcmc()
    counters = system.dcmc.counters
    system.access(0, False, 0.0)
    assert counters.get("xta.misses") == 1
    assert counters.get("line.hits") == 0
    assert system.access(0, False, 100.0) > 0.0
    assert counters.get("line.hits") == 1
    stats = system.collect_stats()
    assert stats["xta.hits"] == 1 and stats["xta.hit_rate"] == 0.5
    assert system.requests_from_nm >= 1


def test_line_miss_within_cached_sector():
    _, system = make_dcmc()
    dcmc = system.dcmc
    counters = dcmc.counters
    # Find a sector that lives in FM so the fill path is exercised.
    sector = next(s for s in range(dcmc.num_flat_sectors)
                  if not dcmc.remap.lookup(s)[0])
    base = sector * dcmc.sector_bytes
    system.access(base, False, 0.0)
    assert counters.get("fills.sector_in_fm") == 1
    system.access(base + dcmc.dram_line_bytes, False, 50.0)
    assert counters.get("line.misses") == 1
    assert system.requests_from_nm == 0
    system.access(base + dcmc.dram_line_bytes, False, 100.0)
    assert counters.get("line.hits") == 1
    assert system.requests_from_nm == 1


def test_sector_in_nm_is_served_from_nm():
    _, system = make_dcmc()
    dcmc = system.dcmc
    sector = next(s for s in range(dcmc.num_flat_sectors)
                  if dcmc.remap.lookup(s)[0])
    system.access(sector * dcmc.sector_bytes, False, 0.0)
    assert dcmc.counters.get("fills.sector_in_nm") == 1
    assert system.requests_from_nm == system.requests == 1


def test_writes_set_dirty_bits():
    _, system = make_dcmc()
    dcmc = system.dcmc
    sector = next(s for s in range(dcmc.num_flat_sectors)
                  if not dcmc.remap.lookup(s)[0])
    system.access(sector * dcmc.sector_bytes, True, 0.0)
    assert dcmc.xta.dirty[dcmc.xta.slot_of[sector]] == 0b1


def test_metadata_traffic_disabled_in_no_remap_mode():
    _, with_meta = make_dcmc(model_metadata=True)
    _, without_meta = make_dcmc(model_metadata=False)
    for system in (with_meta, without_meta):
        sector_bytes = system.dcmc.sector_bytes
        for i in range(200):
            system.access((i * 7919 * sector_bytes)
                          % system.flat_capacity_bytes, False, float(i) * 40.0)
    assert with_meta.near.metadata_bytes > 0
    assert without_meta.near.metadata_bytes == 0
    assert without_meta.dcmc.counters.get("metadata.accesses") == 0


def run_pressure(system, accesses=3000, stride_sectors=3):
    """Touch many distinct sectors to force evictions and migrations;
    return the system's DCMC."""
    dcmc = system.dcmc
    now = 0.0
    for i in range(accesses):
        sector = (i * stride_sectors) % dcmc.num_flat_sectors
        address = sector * dcmc.sector_bytes + (i % 8) * 256
        system.access(address % dcmc.flat_capacity_bytes, i % 3 == 0, now)
        now += 25.0
    return dcmc


def test_pressure_produces_evictions_and_migrations():
    _, system = make_dcmc()
    dcmc = run_pressure(system)
    assert dcmc.counters.get("evictions.to_fm") > 0
    assert dcmc.counters.get("migrations") > 0


def test_pressure_keeps_remap_consistent():
    _, system = make_dcmc()
    dcmc = run_pressure(system)
    assert dcmc.remap.check_consistency()
    assert dcmc.frames.check_invariants()


def test_frame_conservation_invariant():
    """pool + backing + free-FM-stack == carve-out size at all times."""
    _, system = make_dcmc()
    dcmc = run_pressure(system, accesses=2000)
    total = dcmc.frames.pool_size + dcmc.frames.backing_count + len(dcmc.free_fm)
    assert total == dcmc.frames.carveout_frames


def test_migration_mode_none_never_migrates():
    _, system = make_dcmc(migration_mode="none")
    dcmc = run_pressure(system)
    assert dcmc.counters.get("migrations") == 0
    assert dcmc.counters.get("evictions.to_fm") > 0


def test_migration_mode_all_migrates_on_every_fm_eviction():
    _, system = make_dcmc(migration_mode="all")
    dcmc = run_pressure(system, accesses=1500)
    assert dcmc.counters.get("migrations") > 0
    assert dcmc.counters.get("evictions.to_fm") == 0


def test_migrated_sectors_grow_nm_population():
    _, system = make_dcmc(migration_mode="all")
    before = system.dcmc.remap.count_in_near()
    dcmc = run_pressure(system, accesses=1500)
    assert dcmc.remap.count_in_near() >= before


def test_near_memory_too_small_rejected():
    config = make_config(nm_gb=1, fm_gb=16, scale=1 << 16)
    near = MemoryController(config.near)
    far = MemoryController(config.far)
    with pytest.raises(ValueError):
        DCMC(config, near, far)


def line_runs(mask, lines=8):
    """``(first line, line count)`` of each run of set bits, low first."""
    runs, line = [], 0
    while line < lines:
        if mask >> line & 1:
            first = line
            while line < lines and mask >> line & 1:
                line += 1
            runs.append((first, line - first))
        else:
            line += 1
    return runs


def bind_recording_kernels(monkeypatch, reference):
    """Make every controller built from now on compile a block kernel
    that records ``(address, nbytes, is_write)``; a controller in
    ``reference`` (which may be filled in after it is built) moves one
    DRAM-cache line per block transfer instead, the reference a batched
    copy must reproduce.  Returns the call lists per controller."""
    calls = {}

    def recording_kernels(controller):
        line, block = make_kernels(controller)
        log = calls.setdefault(controller, [])

        def recorded(address, nbytes, is_write, now_ns, demand):
            log.append((address, nbytes, is_write))
            if controller not in reference:
                return block(address, nbytes, is_write, now_ns, demand)
            step = Hybrid2Params().cache_line_bytes
            first = block(address, step, is_write, now_ns, demand)
            for offset in range(step, nbytes, step):
                block(address + offset, step, is_write, now_ns, False)
            return first
        return line, recorded
    monkeypatch.setattr(controller_module, "make_kernels", recording_kernels)
    return calls


@pytest.mark.parametrize("mask", [0b10110110, 0xFF, 0x01, 0x80])
@pytest.mark.parametrize("move", ["evict", "migrate"])
def test_batched_line_moves_match_a_per_line_reference(monkeypatch, move,
                                                        mask):
    """An eviction writes back each run of contiguous dirty lines, and a
    migration fetches each run of missing lines, as one block read and
    one block write.  Against a twin system that moves one line per
    transfer, both controllers end in the same state, float for float,
    and the DCMC counters agree."""
    mode = "none" if move == "evict" else "all"
    reference_controllers = set()
    calls = bind_recording_kernels(monkeypatch, reference_controllers)
    twins = [make_dcmc(migration_mode=mode)[1] for _ in range(2)]
    reference_controllers.update((twins[1].near, twins[1].far))
    for system in twins:
        run_pressure(system, accesses=300)
    batched, reference = (system.dcmc for system in twins)
    assert controller_state(batched.near) == controller_state(reference.near)
    assert controller_state(batched.far) == controller_state(reference.far)
    xta = batched.xta
    slot = next(slot for slot, tag in enumerate(xta.tags)
                if tag >= 0 and xta.fm_frames[slot] >= 0)
    full = xta.full_valid_mask
    newcomer = next(s for s in range(batched.num_flat_sectors)
                    if s not in xta.slot_of)
    for dcmc in (batched, reference):
        assert dcmc.xta.tags == xta.tags
        dcmc.xta.lru[slot] = 0                      # the set's LRU way
        if move == "evict":
            dcmc.xta.valid[slot], dcmc.xta.dirty[slot] = full, mask
        else:
            dcmc.xta.valid[slot] = dcmc.xta.dirty[slot] = full & ~mask
    nm_frame, fm_frame = xta.nm_frames[slot], xta.fm_frames[slot]
    near_calls, far_calls = calls[batched.near], calls[batched.far]
    near_calls.clear()
    far_calls.clear()

    now = 300 * 25.0 + 100.0
    for system in twins:
        system.access(newcomer * batched.sector_bytes, False, now)

    assert xta.tags[slot] == newcomer
    assert controller_state(batched.near) == controller_state(reference.near)
    assert controller_state(batched.far) == controller_state(reference.far)
    assert batched.counters.as_dict() == reference.counters.as_dict()
    line_bytes = batched.dram_line_bytes
    source, dest = ((nm_frame, near_calls), (fm_frame, far_calls)) \
        if move == "evict" else ((fm_frame, far_calls), (nm_frame, near_calls))
    runs = line_runs(mask)
    for (frame, frame_calls), is_write in ((source, False), (dest, True)):
        assert frame_calls[:len(runs)] == [
            (frame * batched.sector_bytes + first * line_bytes,
             count * line_bytes, is_write)
            for first, count in runs]
        # After the runs come a swap's whole-sector copies, and last the
        # newcomer's case-2b demand fill of one DRAM-cache line, which
        # ``MemoryController.transfer_block`` issues on the same kernel.
        *copies, (_, fill_bytes, _) = frame_calls[len(runs):]
        assert all(nbytes == batched.sector_bytes for _, nbytes, _ in copies)
        assert fill_bytes == line_bytes


@pytest.mark.parametrize("variant", [
    {}, {"migration_mode": "all"}, {"migration_mode": "none"},
    {"model_metadata": False}], ids=["policy", "all", "none", "no-remap"])
@pytest.mark.parametrize("workload,refs", [("omnetpp", 4000),
                                           ("dc.B", 16000)])
def test_rare_paths_conserve_misses_frames_and_migrations(workload, refs,
                                                          variant):
    """On runs that evict, migrate and swap at the bench config (at seed
    1 the default policy makes 82 migrations and 53 swaps on omnetpp and
    175 and 163 on dc.B), every XTA miss is one fill, and one eviction,
    migration or first use of a free way; every eviction to FM has one
    verdict; the DCMC and policy count the same migrations and the pool
    the same swaps; and the remap table and frame pool stay consistent."""
    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    system = Hybrid2System(config, **variant)
    stats = simulate(system, get_workload(workload), refs, seed=1).stats
    misses = stats["xta.misses"]
    assert misses == stats["fills.sector_in_fm"] + stats["fills.sector_in_nm"]
    assert misses == (stats["evictions.nm_resident"]
                      + stats["evictions.to_fm"] + stats["migrations"]
                      + stats["xta.allocated"])
    assert stats["evictions.to_fm"] == (stats["evictions.evict-counter"]
                                        + stats["evictions.evict-bandwidth"])
    assert stats["migrations"] == stats["policy.migrations"]
    assert stats["allocation.swaps"] == stats["frames.swap_allocations"]
    if not variant:
        assert stats["allocation.swaps"] > 0 and stats["migrations"] > 0
    assert stats["requests.from_nm"] <= stats["requests"]
    assert system.dcmc.remap.check_consistency()
    assert system.dcmc.frames.check_invariants()
