"""Property-based tests (hypothesis) for the core data structures and
invariants of the reproduction."""

import dataclasses
import runpy
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import DESIGN_FACTORIES, IdealCache
from repro.core.hybrid2 import Hybrid2System
from repro.core.policy import eviction_cost, migration_cost, net_cost
from repro.core.remap import FreeFMStack, RemapTable
from repro.common import LINE_SIZE
from repro.cpu.core import miss_columns
from repro.cpu.trace import Trace
from repro.memory.controller import MemoryController
from repro.memory.kernels import KIND_BACKGROUND, KIND_DEMAND
from repro.params import (CoreParams, Hybrid2Params, ddr4_params, hbm2_params,
                          make_config)
from repro.sim.perfbench import NullMemorySystem
from repro.sim.simulator import simulate
from repro.stats import Stats

from engine_oracle import IntervalCore, stepped_reference

DRAM_GOLDEN_TOOL = runpy.run_path(str(
    Path(__file__).resolve().parents[1] / "tools" / "make_dram_golden.py"))


# ---------------------------------------------------------------------------
# cost function (Section 3.7.2)
# ---------------------------------------------------------------------------
@given(nall=st.integers(1, 64), data=st.data())
def test_net_cost_stays_within_paper_bounds(nall, data):
    valid = data.draw(st.integers(1, nall))
    dirty = data.draw(st.integers(0, valid))
    cost = net_cost(nall, valid, dirty)
    assert 1 <= cost <= 2 * nall
    assert cost == migration_cost(nall, valid) - eviction_cost(dirty)


@given(nall=st.integers(1, 64), valid=st.integers(0, 64), dirty=st.integers(0, 64))
def test_migration_cost_monotonic_in_valid_lines(nall, valid, dirty):
    valid = min(valid, nall)
    assert migration_cost(nall, valid) >= migration_cost(nall, min(nall, valid + 1))


# ---------------------------------------------------------------------------
# stats registry
# ---------------------------------------------------------------------------
@given(st.dictionaries(st.text(min_size=1, max_size=8),
                       st.floats(-1e6, 1e6, allow_nan=False), max_size=8),
       st.dictionaries(st.text(min_size=1, max_size=8),
                       st.floats(-1e6, 1e6, allow_nan=False), max_size=8))
def test_stats_merge_is_additive(left, right):
    a = Stats()
    a.merge(left)
    a.merge(right)
    for key in set(left) | set(right):
        assert a[key] == left.get(key, 0.0) + right.get(key, 0.0)


# ---------------------------------------------------------------------------
# XTA
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=200))
def test_xta_lookup_after_allocate_finds_sector(sectors):
    """Every access through the Hybrid2 step counts one XTA lookup, hits
    exactly when ``slot_of`` already held the sector, and leaves the sector
    linked; the misses allocate (evicting and migrating once the 8 x 16
    XTA of the bench config fills)."""
    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    system = Hybrid2System(config)
    xta = system.dcmc.xta
    hits = 0
    for t, sector in enumerate(sectors):
        hits += sector in xta.slot_of
        system.access(sector * config.hybrid2.sector_bytes, False, t * 20.0)
        assert sector in xta.slot_of
    stats = system.collect_stats()
    assert stats["xta.hits"] + stats["xta.misses"] == len(sectors)
    assert stats["xta.hits"] == hits
    assert xta.allocated_entries() <= xta.capacity_sectors


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 400), st.integers(0, 7),
                          st.booleans()), min_size=1, max_size=250),
       st.sampled_from(["policy", "all", "none"]))
def test_flat_xta_invariants_hold_after_every_reference(refs, mode):
    """Random ``(sector, DRAM-cache line, is_write)`` references through
    the Hybrid2 step keep the flat XTA's columns consistent after each
    one: the ``sector -> slot`` map and the tag column agree, each linked
    sector sits in one slot of its own set, the map never outgrows the
    array, a migrated (NM-resident) sector shows every line valid and
    dirty, and XTA hits plus misses count every reference."""
    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    system = Hybrid2System(config, migration_mode=mode)
    dcmc = system.dcmc
    xta = dcmc.xta
    full = xta.full_valid_mask
    for t, (sector, line, is_write) in enumerate(refs):
        address = sector * dcmc.sector_bytes + line * dcmc.dram_line_bytes
        system.access(address, is_write, t * 20.0)
        linked = [(slot, tag) for slot, tag in enumerate(xta.tags) if tag >= 0]
        assert dict((tag, slot) for slot, tag in linked) == xta.slot_of
        assert len({tag for _, tag in linked}) == len(linked)
        assert xta.allocated_entries() == len(xta.slot_of) \
            <= xta.capacity_sectors
        for slot, tag in linked:
            assert slot // xta.ways == tag % xta.num_sets
            if xta.fm_frames[slot] < 0:
                assert xta.valid[slot] == xta.dirty[slot] == full
            assert xta.dirty[slot] & ~xta.valid[slot] == 0
        stats = system.collect_stats()
        assert stats["xta.hits"] + stats["xta.misses"] == t + 1
    assert dcmc.remap.check_consistency() and dcmc.frames.check_invariants()


# ---------------------------------------------------------------------------
# remap table
# ---------------------------------------------------------------------------
@given(st.integers(0, 10_000), st.data())
def test_remap_consistency_under_random_swaps(seed, data):
    table = RemapTable(24, nm_flat_frames=list(range(100, 108)), fm_frames=16,
                       seed=seed % 97)
    nm_sectors = [s for s in range(24) if table.lookup(s)[0]]
    fm_sectors = [s for s in range(24) if not table.lookup(s)[0]]
    swaps = data.draw(st.integers(0, 8))
    for _ in range(swaps):
        if not nm_sectors or not fm_sectors:
            break
        nm_sector = data.draw(st.sampled_from(nm_sectors))
        fm_sector = data.draw(st.sampled_from(fm_sectors))
        _, nm_frame = table.lookup(nm_sector)
        _, fm_frame = table.lookup(fm_sector)
        table.assign_to_near(fm_sector, nm_frame)
        table.assign_to_far(nm_sector, fm_frame)
        nm_sectors.remove(nm_sector)
        nm_sectors.append(fm_sector)
        fm_sectors.remove(fm_sector)
        fm_sectors.append(nm_sector)
    assert table.check_consistency()
    assert table.count_in_near() == 8


@given(num_nm=st.integers(0, 6), num_fm=st.integers(0, 8),
       spare=st.integers(0, 3), seed=st.integers(0, 99), data=st.data())
def test_remap_table_invariants_under_random_operations(num_nm, num_fm,
                                                        spare, seed, data):
    """Random sequences of the updates the DCMC and the migration
    baselines make (``assign_to_near`` into a frame no sector calls home,
    ``assign_to_far`` into a vacated FM frame, swaps, and
    ``record_inverse_nm`` links of FM sectors) keep the flat columns and
    both inverse tables consistent, on tables with no NM or no FM frames
    too: a vacated frame maps back to no sector (or, in NM, only to the
    sector last linked to it)."""
    assume(num_nm + num_fm > 0)
    num_sectors = num_nm + num_fm
    table = RemapTable(num_sectors, list(range(10, 10 + num_nm)), num_fm,
                       seed=seed)
    free_nm = list(range(100, 100 + spare))    # frames no sector calls home
    free_fm: list = []
    links: dict = {}                # free NM frame -> sector linked to it
    for _ in range(data.draw(st.integers(0, 24))):
        near = [s for s in range(num_sectors) if table.lookup(s)[0]]
        far = [s for s in range(num_sectors) if s not in near]
        ops = [op for op, ok in (("to_near", free_nm),
                                 ("to_far", free_fm),
                                 ("swap", near and far),
                                 ("link", free_nm and far)) if ok]
        if not ops:
            break
        op = data.draw(st.sampled_from(ops))
        if op == "swap":
            a = data.draw(st.sampled_from(far))
            b = data.draw(st.sampled_from(near))
            fm_frame, nm_frame = table.lookup(a)[1], table.lookup(b)[1]
            table.assign_to_near(a, nm_frame)
            table.assign_to_far(b, fm_frame)
        elif op == "link":
            frame = data.draw(st.sampled_from(free_nm))
            links[frame] = data.draw(st.sampled_from(far))
            table.record_inverse_nm(frame, links[frame])
        else:
            sector = data.draw(st.sampled_from(range(num_sectors)))
            old_in_near, old_frame = table.lookup(sector)
            if op == "to_near":
                frame = data.draw(st.sampled_from(free_nm))
                table.assign_to_near(sector, frame)
                free_nm.remove(frame)
            else:
                frame = data.draw(st.sampled_from(free_fm))
                table.assign_to_far(sector, frame)
                free_fm.remove(frame)
            if old_in_near:
                free_nm.append(old_frame)
                links.pop(old_frame, None)
            else:
                free_fm.append(old_frame)
    assert table.count_in_near() == sum(table.lookup(s)[0]
                                        for s in range(num_sectors))
    assert table.check_consistency()
    assert sorted(f for f in range(num_fm)
                  if table.sector_at_fm_frame(f) == -1) == sorted(free_fm)
    assert ([table.sector_at_nm_frame(f) for f in free_nm]
            == [links.get(f, -1) for f in free_nm])
    assert type(table._in_near) is bytearray
    assert len(table._in_near) == num_sectors
    assert set(table._in_near) <= {0, 1}
    for column, length in ((table._frame, num_sectors),
                           (table._inverse_fm, num_fm)):
        assert type(column) is array and column.typecode == "q"
        assert len(column) == length


# ---------------------------------------------------------------------------
# free-FM stack
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(0, 1000), max_size=64))
def test_free_fm_stack_is_lifo(frames):
    stack = FreeFMStack(on_chip_entries=4)
    for frame in frames:
        stack.push(frame)
    popped = []
    while len(stack):
        popped.append(stack.pop()[0])
    assert popped == list(reversed(frames))


# ---------------------------------------------------------------------------
# NM frame pool
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 120), st.booleans()),
                min_size=1, max_size=150),
       st.sampled_from(["policy", "all", "none"]))
def test_frame_pool_invariants_under_random_operations(refs, mode):
    """Random references through the Hybrid2 step of a one-set, 16-frame
    DRAM cache take, return, give up (migrations) and steal (swaps) NM
    frames; after each one the free pool stays inside the cache-owned
    frames, no metadata frame is handed out, and every carve-out frame is
    free, backing a linked sector or paid for by a free FM frame."""
    config = make_config(nm_gb=1, fm_gb=16, scale=1024,
                         hybrid2=Hybrid2Params(dram_cache_bytes=64 * 1024))
    system = Hybrid2System(config, migration_mode=mode)
    dcmc = system.dcmc
    pool = dcmc.frames
    for t, (sector, is_write) in enumerate(refs):
        system.access(sector * 7 * dcmc.sector_bytes, is_write, t * 20.0)
        assert pool.check_invariants()
        assert pool.pool_size <= pool.cache_owned_count
        assert (pool.pool_size + pool.backing_count + len(dcmc.free_fm)
                == pool.carveout_frames)
    assert dcmc.remap.check_consistency()


# ---------------------------------------------------------------------------
# DRAM timing (a memory's kernels over its state)
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, (1 << 22) - 64), st.booleans()),
                min_size=1, max_size=100))
@settings(max_examples=30)
def test_dram_device_time_and_energy_are_monotone(requests):
    controller = MemoryController(hbm2_params(4 << 20))
    now = 0.0
    last_energy = 0.0
    for address, is_write in requests:
        latency = controller.access(address - address % 64, is_write, now)
        assert latency > MemoryController.CONTROLLER_OVERHEAD_NS
        assert controller.energy_pj >= last_energy
        last_energy = controller.energy_pj
        now = max(now, now + latency - 10.0)
    assert controller.total_bytes == 64 * len(requests)


#: One operation of a random controller schedule: a line access of one
#: traffic class, or a block transfer of up to 4 KB.
DRAM_OPS = st.one_of(
    st.tuples(st.just("line"), st.integers(0, (1 << 26) - 64),
              st.booleans(), st.sampled_from(("demand", "background",
                                              "metadata"))),
    st.tuples(st.just("block"), st.integers(0, (1 << 26) - 4096),
              st.booleans(), st.sampled_from((64, 256, 2048, 4096)),
              st.booleans()),
)


@given(params_factory=st.sampled_from((hbm2_params, ddr4_params)),
       ops=st.lists(st.tuples(DRAM_OPS, st.floats(0.0, 50.0)),
                    min_size=1, max_size=60))
@settings(max_examples=40)
def test_dram_controller_conserves_bytes_and_energy(params_factory, ops):
    """Every 64 B line is counted once as traffic, once in exactly one
    traffic class, once as a row hit or an activation of its bank, and
    pays exactly its line energy and its channel's burst time; each
    activation pays its ACT/PRE energy.  The derived floats equal the
    per-line accumulators they replace, bit for bit."""
    controller = MemoryController(params_factory(1 << 26))
    now = 0.0
    for op, gap in ops:
        now += gap
        if op[0] == "line":
            _, address, is_write, kind = op
            controller.access(address - address % 64, is_write, now,
                              demand=(kind == "demand"),
                              metadata=(kind == "metadata"))
        else:
            _, address, is_write, nbytes, demand = op
            controller.transfer_block(address - address % 64, nbytes,
                                      is_write, now, demand=demand)
    def added_one_by_one(term, count):
        total = 0.0
        for _ in range(count):
            total += term
        return total

    lines = controller.reads + controller.writes
    assert controller.read_bytes + controller.write_bytes == lines * LINE_SIZE
    assert (controller.demand_bytes + controller.background_bytes
            + controller.metadata_bytes) == controller.total_bytes
    params = controller.params
    assert controller.rw_energy_pj == added_one_by_one(
        params.rw_energy_pj_per_bit * LINE_SIZE * 8, lines)
    assert controller.act_pre_energy_pj == added_one_by_one(
        params.act_pre_energy_nj * 1000.0, sum(controller.activations))
    banks = params.banks_per_channel
    for channel, busy in enumerate(controller.busy_ns):
        channel_lines = sum(controller.lines[channel * banks:
                                         (channel + 1) * banks])
        assert busy == added_one_by_one(controller.burst_ns, channel_lines)
    for hits, activations, slot_lines in zip(
            controller.row_hits, controller.activations, controller.lines):
        assert hits + activations == slot_lines
    assert sum(controller.lines) == lines


@given(params_factory=st.sampled_from((hbm2_params, ddr4_params)),
       interleave=st.sampled_from((64, 128, 256, 1024, 4096)),
       row_bytes=st.sampled_from((1024, 2048, 8192)),
       channels=st.sampled_from((1, 3, 4)),
       ops=st.lists(st.tuples(st.integers(0, (1 << 22) // LINE_SIZE),
                              st.integers(1, 4096), st.booleans(),
                              st.booleans(), st.floats(0.0, 80.0)),
                    min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_block_kernel_equals_its_lines_issued_one_by_one(
        params_factory, interleave, row_bytes, channels, ops):
    """The block kernel classifies one line per span of same-row lines and
    adds the row-hit timing for the rest; issuing every line through the
    line kernel must leave the same latency and the same state, float for
    float, on any channel interleave, row size and channel count (3 gives
    an address-map period that is not a power of two)."""
    params = dataclasses.replace(params_factory(1 << 26),
                                 channel_interleave_bytes=interleave,
                                 row_bytes=row_bytes, channels=channels)
    by_block, by_line = MemoryController(params), MemoryController(params)
    block_transfer = by_block.block_transfer
    line_access = by_line.line_access
    now = 0.0
    for line, nbytes, is_write, demand, gap in ops:
        now += gap
        address = line * LINE_SIZE
        got = block_transfer(address, nbytes, is_write, now, demand)
        kinds = [KIND_DEMAND if demand else KIND_BACKGROUND]
        kinds += [KIND_BACKGROUND] * (max(1, nbytes // LINE_SIZE) - 1)
        want = [line_access(*by_line.locate(address + i * LINE_SIZE),
                            is_write, now, kind)
                for i, kind in enumerate(kinds)][0]
        assert got == want
    state = DRAM_GOLDEN_TOOL["controller_state"]
    assert state(by_block) == state(by_line)


@given(params_factory=st.sampled_from((hbm2_params, ddr4_params)),
       interleave=st.sampled_from((None, 64, 128, 1024, 4096)),
       row_bytes=st.sampled_from((None, 1024, 8192)),
       channels=st.sampled_from((None, 1, 3, 4)),
       addresses=st.lists(st.integers(0, (1 << 40) - 1), min_size=1,
                          max_size=40))
def test_locate_agrees_on_arrays_ints_and_the_bank_formula(
        params_factory, interleave, row_bytes, channels, addresses):
    """``MemoryController.locate`` reads one slot table for an int64
    ndarray and for each Python int, and gives the channel/bank/row split
    computed from the address by plain arithmetic, as the kernels did
    before the table; the table itself holds that split for every span of
    its period."""
    params = params_factory(1 << 26)
    overrides = {"channel_interleave_bytes": interleave,
                 "row_bytes": row_bytes, "channels": channels}
    params = dataclasses.replace(params, **{
        key: value for key, value in overrides.items() if value is not None})
    controller = MemoryController(params)
    slots, rows = controller.locate(np.asarray(addresses, dtype=np.int64))
    banks = params.banks_per_channel
    for address, slot, row in zip(addresses, slots.tolist(), rows.tolist()):
        assert controller.locate(address) == (slot, row)
        channel = (address // params.channel_interleave_bytes) \
            % params.channels
        row_global = address // params.row_bytes
        bank = (row_global // params.channels) % banks
        assert (slot, row) == (channel * banks + bank,
                               row_global // (params.channels * banks))
        assert controller.channel_of[slot] == channel
    slot_table, period, span, row_stride = controller.address_map
    assert row_stride == params.row_bytes * params.channels * banks
    assert period % (params.channel_interleave_bytes * params.channels) == 0
    assert period % row_stride == 0
    assert slot_table == [
        address // params.channel_interleave_bytes % params.channels * banks
        + address // params.row_bytes // params.channels % banks
        for address in range(0, period, span)]


# ---------------------------------------------------------------------------
# interval core: the closed form the driver precomputes
# ---------------------------------------------------------------------------
@given(gaps=st.lists(st.one_of(st.just(0), st.integers(-3, 600)),
                     max_size=120),
       rob_size=st.integers(1, 400),
       max_outstanding=st.sampled_from((1, 2, 8)))
@settings(max_examples=150)
def test_miss_columns_equal_the_live_outstanding_window(gaps, rob_size,
                                                        max_outstanding):
    params = CoreParams(rob_size=rob_size,
                        max_outstanding_misses=max_outstanding)
    instructions, overlap = miss_columns(np.asarray(gaps, dtype=np.int64),
                                         params)
    core = IntervalCore(params)
    live_instructions, live_overlap = [], []
    for gap in gaps:
        core.execute(gap)
        core.memory_miss(80.0)
        live_instructions.append(core.instructions)
        # memory_miss appends the miss, so the window now holds the
        # overlap it divided by.
        live_overlap.append(len(core._outstanding))
    assert instructions.tolist() == live_instructions
    assert overlap.tolist() == live_overlap


SIM_CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
#: Every catalog design, plus the 4 KB-line IDEAL cache: 64 blocks per
#: line, so its touched-block bit only fits a Python int.
SIM_FACTORIES = {**DESIGN_FACTORIES,
                 "IDEAL-4096": lambda config: IdealCache(config,
                                                         line_size=4096)}


def random_trace(seed, n):
    """``n`` references with gaps of 0-399 (a fifth of them 0)."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 400, size=n) * (rng.random(n) < 0.8)
    return Trace(gaps, rng.integers(0, 1 << 18, size=n) * LINE_SIZE,
                 rng.random(n) < 0.3)


def assert_simulate_matches_stepped(design, traces, warmup_fraction):
    """``simulate()`` feeds the design's step ndarray columns; the oracle
    calls ``access`` with Python ints, one reference at a time."""
    result = simulate(SIM_FACTORIES[design](SIM_CONFIG), traces,
                      warmup_fraction=warmup_fraction)
    reference = stepped_reference(SIM_FACTORIES[design](SIM_CONFIG), traces,
                                  warmup_fraction)
    assert result.as_dict() == reference.as_dict()


@pytest.mark.parametrize("design", list(SIM_FACTORIES))
@pytest.mark.parametrize("lengths,warmup_fraction", [
    ((40, 17, 29), 0.25),       # unequal lengths: cores drain apart
    ((30, 0, 30), 0.25),        # one empty core trace
    ((21, 21, 21), 0.5),        # warm-up boundary mid-pass (31 = 10 x 3 + 1)
    ((25, 25), 0.0),            # no warm-up
    ((0, 0), 0.25),             # zero records
    ((), 0.25),                 # no traces at all
    ((33,), 0.25),              # one trace: the single-core schedule
])
def test_simulate_matches_stepped_interval_cores(design, lengths,
                                                 warmup_fraction):
    traces = [random_trace(seed, n) for seed, n in enumerate(lengths)]
    assert_simulate_matches_stepped(design, traces, warmup_fraction)


@given(lengths=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       warmup_fraction=st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9)),
       design=st.sampled_from(list(SIM_FACTORIES)),
       seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_simulate_matches_stepped_on_random_schedules(lengths,
                                                      warmup_fraction,
                                                      design, seed):
    traces = [random_trace(seed + i, n) for i, n in enumerate(lengths)]
    assert_simulate_matches_stepped(design, traces, warmup_fraction)


@given(design=st.sampled_from(list(SIM_FACTORIES)),
       refs=st.lists(st.tuples(st.integers(0, (1 << 34) // LINE_SIZE),
                               st.booleans(), st.floats(0.0, 400.0)),
                     max_size=80),
       reset_at=st.integers(0, 80))
@settings(max_examples=40, deadline=None)
def test_request_counters_are_bounded_by_requests(design, refs, reset_at):
    """Requests served from NM and write requests are subsets of all
    requests, before and after a measurement reset."""
    system = SIM_FACTORIES[design](SIM_CONFIG)
    now = 0.0
    for n, (line, is_write, gap) in enumerate(refs):
        if n == reset_at:
            system.reset_measurement()
        now += gap
        system.access(line * LINE_SIZE, is_write, now)
        assert 0 <= system.requests_from_nm <= system.requests
        assert 0 <= system.write_requests <= system.requests
    assert system.requests == len(refs) - (reset_at if reset_at < len(refs)
                                           else 0)


@given(design=st.sampled_from(["NULL", *SIM_FACTORIES]),
       lengths=st.lists(st.integers(0, 30), min_size=1, max_size=4),
       warmup_fraction=st.sampled_from((0.0, 0.25, 0.9)),
       seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_simulate_counts_the_measured_slice(design, lengths,
                                            warmup_fraction, seed):
    """The steps count no requests: ``simulate()`` adds the measured
    slice's length and write count once, and ``access()`` counts exactly
    one request on top."""
    traces = [random_trace(seed + i, n) for i, n in enumerate(lengths)]
    system = (NullMemorySystem(SIM_CONFIG) if design == "NULL"
              else SIM_FACTORIES[design](SIM_CONFIG))
    simulate(system, traces, warmup_fraction=warmup_fraction)
    schedule = [trace.is_write[pos] for pos in range(max(lengths))
                for trace in traces if pos < len(trace)]
    measured = schedule[int(len(schedule) * warmup_fraction):]
    assert system.requests == len(measured)
    assert system.write_requests == sum(measured)
    system.access(LINE_SIZE, True, 1e9)
    assert system.requests == len(measured) + 1
    assert system.write_requests == sum(measured) + 1
