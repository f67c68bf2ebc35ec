"""Tests for the DRAM substrate: timings, and a memory's timing kernels
over its flat per-bank and per-channel state, its line counters and the
energy and busy time it derives from them."""

import pytest

from repro.common import LINE_SIZE
from repro.memory.controller import FOLD_CHUNK, MemoryController, fold
from repro.params import ddr4_params, hbm2_params


@pytest.fixture
def hbm():
    return hbm2_params(4 * 1024 * 1024)


@pytest.fixture
def ddr():
    return ddr4_params(64 * 1024 * 1024)


# ---------------------------------------------------------------------------
# timings
# ---------------------------------------------------------------------------
def row_latencies_ns(params):
    """``(hit, empty, miss)`` array latencies in ns, as the kernels derive
    them: column access; activate then column access; precharge, activate
    then column access."""
    clock_ns = params.clock_ns
    tcas_ns = params.tcas_cycles * clock_ns
    trcd_ns = params.trcd_cycles * clock_ns
    trp_ns = params.trp_cycles * clock_ns
    return tcas_ns, trcd_ns + tcas_ns, trp_ns + trcd_ns + tcas_ns


def burst_ns(params, nbytes):
    """Data-bus time of ``nbytes`` on one channel (two transfers/cycle)."""
    return nbytes * (params.clock_ns / (params.bus_bits / 8 * 2))


def test_timing_latency_ordering(hbm):
    hit, empty, miss = row_latencies_ns(hbm)
    assert hit < empty
    assert empty < miss


def test_hbm_faster_and_wider_than_ddr(hbm, ddr):
    assert row_latencies_ns(hbm)[2] < row_latencies_ns(ddr)[2]
    assert burst_ns(hbm, 64) < burst_ns(ddr, 64)


def test_burst_time_scales_with_size(hbm):
    assert burst_ns(hbm, 128) == pytest.approx(2 * burst_ns(hbm, 64))


# ---------------------------------------------------------------------------
# banks and channels, driven through the controller's timing kernels
# ---------------------------------------------------------------------------
#: HBM2 (8 channels, 8 banks, 2 KB rows, 256 B channel interleave): three
#: addresses on channel 0, two of them rows 0 and 1 of bank 0 and one in
#: bank 1.
BANK0_ROW0 = 0
BANK0_ROW1 = 64 * 2048
BANK1_ROW0 = 8 * 2048


def _bank(controller, channel, bank):
    """The slot of ``bank`` of ``channel``: the index of its state in the
    memory's per-bank lists."""
    slot = channel * controller.params.banks_per_channel + bank
    assert controller.channel_of[slot] == channel
    return slot


def test_bank_classify_and_record(hbm):
    """Empty bank -> activation; same row -> hit; other row -> miss."""
    controller = MemoryController(hbm)
    bank = _bank(controller, 0, 0)
    controller.access(BANK0_ROW0, False, 0.0)
    assert (controller.open_row[bank], controller.activations[bank],
            controller.row_misses[bank]) == (0, 1, 0)
    controller.access(BANK0_ROW0 + LINE_SIZE, False, 100.0)
    assert controller.row_hits[bank] == 1
    assert controller.activations[bank] == 1
    controller.access(BANK0_ROW1, False, 200.0)
    assert controller.open_row[bank] == 1
    assert controller.row_misses[bank] == 1
    assert controller.activations[bank] == 2


def test_bank_precharge(hbm):
    """A precharged bank (no open row) costs an activation, not a miss."""
    controller = MemoryController(hbm)
    controller.access(BANK0_ROW0, False, 0.0)
    bank = _bank(controller, 0, 0)
    controller.open_row[bank] = -1
    controller.access(BANK0_ROW1, False, 100.0)
    assert controller.row_misses[bank] == 0
    assert controller.activations[bank] == 2


def test_channel_bus_serialises_transfers(hbm):
    """Two banks of one channel share its data bus: the second burst
    waits for the first."""
    controller = MemoryController(hbm)
    burst = burst_ns(hbm, LINE_SIZE)
    first = controller.access(BANK0_ROW0, False, 0.0)
    second = controller.access(BANK1_ROW0, False, 0.0)
    assert second == first + burst
    assert controller.busy_ns[0] == 2 * burst
    assert controller.bus_free_at_ns[0] == first - \
        MemoryController.CONTROLLER_OVERHEAD_NS + burst


# ---------------------------------------------------------------------------
# memory state
# ---------------------------------------------------------------------------
def test_device_row_hit_is_faster_than_miss(hbm):
    controller = MemoryController(hbm)
    empty = controller.access(BANK0_ROW0, False, 0.0)
    hit = controller.access(BANK0_ROW0, False, 100.0)
    miss = controller.access(BANK0_ROW1, False, 200.0)
    assert hit < empty < miss


def test_device_counts_traffic_and_energy(hbm):
    controller = MemoryController(hbm)
    controller.access(0, False, 0.0)
    controller.access(4096, True, 0.0)
    assert controller.reads == 1 and controller.writes == 1
    assert controller.read_bytes == 64 and controller.write_bytes == 64
    assert controller.total_bytes == 128
    assert controller.energy_pj > 0


def test_channel_interleave_spreads_accesses(hbm):
    controller = MemoryController(hbm)
    for i in range(hbm.channels):
        controller.access(i * hbm.channel_interleave_bytes, False, 0.0)
    assert all(busy > 0 for busy in controller.busy_ns)


def test_bandwidth_contention_increases_latency(ddr):
    """Issuing many simultaneous requests must queue on the channel bus."""
    controller = MemoryController(ddr)
    latencies = [controller.access(i * 64, False, 0.0) for i in range(64)]
    assert latencies[-1] > latencies[0]


def test_row_hit_rate_reported(hbm):
    controller = MemoryController(hbm)
    for _ in range(4):
        controller.access(0, False, 0.0)
    assert 0.5 < controller.row_hit_rate <= 1.0


# ---------------------------------------------------------------------------
# energy model
# ---------------------------------------------------------------------------
def added_one_by_one(term, count):
    """A float accumulator that took ``term`` ``count`` times, as a
    per-line counter would (not ``sum()``, which compensates on 3.12+)."""
    total = 0.0
    for _ in range(count):
        total += term
    return total


@pytest.mark.parametrize("count", [0, 1, 2, FOLD_CHUNK - 1, FOLD_CHUNK,
                                   FOLD_CHUNK + 1, 3 * FOLD_CHUNK + 5])
@pytest.mark.parametrize("term", [
    hbm2_params(1 << 27).rw_energy_pj_per_bit * LINE_SIZE * 8,
    ddr4_params(1 << 27).rw_energy_pj_per_bit * LINE_SIZE * 8,
    hbm2_params(1 << 27).act_pre_energy_nj * 1000.0,
    burst_ns(hbm2_params(1 << 27), LINE_SIZE),
    burst_ns(ddr4_params(1 << 27), LINE_SIZE),
], ids=["hbm2_line_pj", "ddr4_line_pj", "act_pre_pj", "hbm2_burst_ns",
        "ddr4_burst_ns"])
def test_fold_equals_a_per_line_accumulator(term, count):
    assert fold(term, count) == added_one_by_one(term, count)


def test_energy_model_accounting(hbm):
    controller = MemoryController(hbm)
    act_pre_pj = hbm.act_pre_energy_nj * 1000.0
    controller.access(BANK0_ROW0, False, 0.0)       # activation + transfer
    controller.access(BANK0_ROW0, False, 100.0)     # row hit: transfer only
    line_pj = hbm.rw_energy_pj_per_bit * LINE_SIZE * 8
    assert controller.rw_energy_pj == 2 * line_pj
    assert controller.act_pre_energy_pj == act_pre_pj
    assert controller.energy_pj == pytest.approx(2 * line_pj + act_pre_pj)


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------
def test_controller_classifies_traffic(hbm):
    controller = MemoryController(hbm)
    controller.access(0, False, 0.0, demand=True)
    controller.access(64, True, 0.0, demand=False)
    controller.access(128, False, 0.0, metadata=True)
    assert controller.demand_bytes == 64
    assert controller.background_bytes == 64
    assert controller.metadata_bytes == 64
    assert controller.total_bytes == 192


def test_controller_adds_overhead(hbm):
    """An idle memory: activate, column access, one burst, plus overhead."""
    controller = MemoryController(hbm)
    latency = controller.access(0, False, 0.0)
    assert latency == (row_latencies_ns(hbm)[1] + burst_ns(hbm, 64)
                       + MemoryController.CONTROLLER_OVERHEAD_NS)


def test_controller_transfer_block_moves_whole_block(hbm):
    controller = MemoryController(hbm)
    latency = controller.transfer_block(0, 2048, False, 0.0, demand=True)
    assert controller.total_bytes == 2048
    assert controller.reads == 2048 // LINE_SIZE
    assert controller.demand_bytes == LINE_SIZE
    assert controller.background_bytes == 2048 - LINE_SIZE
    # Critical word first: the block's latency is its first line's.
    assert latency == MemoryController(hbm).access(0, False, 0.0)


def test_controller_reset_counters_keeps_timing_state(hbm):
    controller = MemoryController(hbm)
    controller.access(0, False, 0.0)
    busy_before = controller.bus_free_at_ns[0]
    controller.reset_counters()
    assert controller.total_bytes == 0
    assert controller.energy_pj == 0
    assert controller.bus_free_at_ns[0] == busy_before
    # The event counters restart; the open row stays.
    assert sum(controller.activations) == 0
    assert controller.open_row[0] == 0


@pytest.mark.parametrize("design, memories", [("BASELINE", 1),
                                               ("HYBRID2", 2)])
def test_collect_stats_derives_each_energy_once(monkeypatch, small_config,
                                                drive, design, memories):
    """Energy is a fold over the line and activation counts, derived on
    read; ``collect_stats`` reads each memory's once (two folds) and sums
    those reads for the total."""
    from repro.baselines import make_design
    from repro.memory import controller

    system = drive(make_design(design, small_config), n=400)
    expected = sum(memory.energy_pj for memory in (system.near, system.far)
                   if memory is not None)
    folds = []

    def counted(term, count):
        folds.append(count)
        return fold(term, count)

    monkeypatch.setattr(controller, "fold", counted)
    stats = system.collect_stats()
    assert len(folds) == 2 * memories
    assert stats["energy_pj"] == expected > 0
