"""The DRAM timing model: inlined access kernels over flat device state.

:func:`make_kernels` compiles one
:class:`~repro.memory.controller.MemoryController` into a pair of closures
and is the only implementation of DRAM timing and energy in the package:
it derives the row hit / empty / miss latencies, the burst time and the
per-line and per-activation energies from the device's
:class:`~repro.params.DramParams` itself.  The controller builds its own
pair once and its
:meth:`~repro.memory.controller.MemoryController.access` /
:meth:`~repro.memory.controller.MemoryController.transfer_block` methods
are thin calls into them; each design step (``MemorySystem._step``, which
both ``MemorySystem.fast_path`` and ``MemorySystem.access`` run) calls
:func:`make_kernels` for a pair of its own and skips the method call.
Hybrid2's step binds both memories' pairs and runs its common line-miss
fill on the block kernels; its rare events keep the controller methods.

The line kernel takes a line's ``(slot, row)``
(:meth:`~repro.memory.device.DramDevice.locate`) rather than its address:
a design maps every address it knows before the run in its ``_columns``,
and the few whose frame is runtime state inline the same arithmetic.  Per
64 B line it classifies the row-buffer state (hit / miss / empty), waits
for the bank, serialises the burst on the channel's data bus, and
accounts traffic and dynamic energy.

Energy is dynamic only, as in the paper's Figure 18 (refresh and static
energy are excluded): ``rw_energy_pj_per_bit * 512`` per 64 B line and
``act_pre_energy_nj * 1000`` pJ per row activation.  Both sums are float
accumulators on the device, added one line at a time in access order,
rather than products of the line and activation counts derived
afterwards, so they stay bit-identical to the per-line sequence whichever
kernel or call site issued the line.

All state lives in the device's per-bank and per-channel lists and its
counters, so every pair of kernels compiled for one controller shares it:
a design step's inlined bursts interleave freely with the controller
methods its rare events (evictions, migrations, swaps) call.
``tests/test_fastpath.py`` pins the kernels against the frozen golden
``tests/data/golden/dram_timing.json`` float for float and
``tests/test_engine_equivalence.py`` pins the full engine per design.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Tuple

from ..common import LINE_SIZE

if TYPE_CHECKING:
    from .controller import MemoryController

#: Traffic classes accepted by the line kernel (mirrors the ``demand`` /
#: ``metadata`` flags of :meth:`MemoryController.access`).
KIND_DEMAND = 0
KIND_BACKGROUND = 1
KIND_METADATA = 2

LineKernel = Callable[[int, int, bool, float, int], float]
BlockKernel = Callable[[int, int, bool, float, bool], float]


def make_kernels(controller: "MemoryController") -> Tuple[LineKernel,
                                                          BlockKernel]:
    """Return ``(line_access, block_transfer)`` kernels for ``controller``.

    ``line_access(slot, row, is_write, now_ns, kind)`` issues one 64 B
    access to row ``row`` of bank ``slot`` and returns its latency in ns
    (controller overhead included); ``kind`` selects the traffic class
    (:data:`KIND_DEMAND` / :data:`KIND_BACKGROUND` / :data:`KIND_METADATA`).
    ``block_transfer(address, nbytes, is_write, now_ns, demand)`` streams a
    block as consecutive line bursts, all issued at ``now_ns``, and returns
    the latency of the first line (critical word first); only that line is
    demand traffic.
    """
    device = controller.device
    params = device.params
    open_rows = device.open_row
    ready_at = device.ready_at_ns
    row_hits = device.row_hits
    row_misses = device.row_misses
    activations = device.activations
    channel_of = device.channel_of
    bus_free_at = device.bus_free_at_ns
    busy_ns = device.busy_ns
    interleave, num_channels, banks_per_channel, row_bytes = \
        device.address_map
    banks_stride = num_channels * banks_per_channel
    # Lines inside one aligned span share a channel, a bank and a row.
    span = math.gcd(interleave, row_bytes)
    # Row hit: column access only.  Row empty: activate, then column
    # access.  Row miss: precharge, activate, column access.  A burst is
    # one line on one channel's data bus (DDR: two transfers per cycle).
    clock_ns = params.clock_ns
    hit_ns = params.tcas_cycles * clock_ns
    trcd_ns = params.trcd_cycles * clock_ns
    empty_ns = trcd_ns + hit_ns
    miss_ns = params.trp_cycles * clock_ns + trcd_ns + hit_ns
    burst_ns = LINE_SIZE * (clock_ns / (params.bus_bits / 8 * 2))
    line_rw_pj = params.rw_energy_pj_per_bit * LINE_SIZE * 8
    act_pre_pj = params.act_pre_energy_nj * 1000.0
    overhead_ns = controller.CONTROLLER_OVERHEAD_NS

    def line_access(slot: int, row: int, is_write: bool, now_ns: float,
                    kind: int) -> float:
        open_row = open_rows[slot]
        if open_row == row:
            array_latency = hit_ns
            row_hits[slot] += 1
        else:
            if open_row < 0:
                array_latency = empty_ns
            else:
                array_latency = miss_ns
                row_misses[slot] += 1
            activations[slot] += 1
            device.act_pre_energy_pj += act_pre_pj
            open_rows[slot] = row

        ready = ready_at[slot]
        if now_ns > ready:
            ready = now_ns
        data_ready = ready + array_latency
        channel = channel_of[slot]
        begin = bus_free_at[channel]
        if data_ready > begin:
            begin = data_ready
        completion = begin + burst_ns
        bus_free_at[channel] = completion
        busy_ns[channel] += burst_ns
        ready_at[slot] = completion

        device.rw_energy_pj += line_rw_pj
        if is_write:
            device.writes += 1
        else:
            device.reads += 1
        if kind == 0:
            controller.demand_bytes += LINE_SIZE
        elif kind == 1:
            controller.background_bytes += LINE_SIZE
        else:
            controller.metadata_bytes += LINE_SIZE
        return (completion - now_ns) + overhead_ns

    def block_transfer(address: int, nbytes: int, is_write: bool,
                       now_ns: float, demand: bool) -> float:
        # The line body of ``line_access``, inlined, once per run of lines
        # inside one ``span``-aligned span: those share a channel, bank and
        # row, so after the run's first line every line is a row hit that
        # starts when the previous one completes (the bank and the bus are
        # both free then).  Floats are still added one line at a time in
        # line order (the energy sums through locals), so every sum is
        # bit-identical to issuing the lines one by one; the integer
        # counters are bumped once per run or per block.
        lines = max(1, nbytes // LINE_SIZE)
        end = address + lines * LINE_SIZE
        rw_pj = device.rw_energy_pj
        act_pj = device.act_pre_energy_pj
        first = 0.0
        line_address = address
        while line_address < end:
            rows = line_address // row_bytes
            slot = (line_address // interleave % num_channels
                    * banks_per_channel + rows // num_channels
                    % banks_per_channel)
            row = rows // banks_stride
            run_end = (line_address // span + 1) * span
            if run_end > end:
                run_end = end
            run = -((line_address - run_end) // LINE_SIZE)

            open_row = open_rows[slot]
            if open_row == row:
                array_latency = hit_ns
                row_hits[slot] += run
            else:
                if open_row < 0:
                    array_latency = empty_ns
                else:
                    array_latency = miss_ns
                    row_misses[slot] += 1
                activations[slot] += 1
                act_pj += act_pre_pj
                open_rows[slot] = row
                row_hits[slot] += run - 1

            ready = ready_at[slot]
            if now_ns > ready:
                ready = now_ns
            data_ready = ready + array_latency
            channel = channel_of[slot]
            begin = bus_free_at[channel]
            if data_ready > begin:
                begin = data_ready
            completion = begin + burst_ns
            busy = busy_ns[channel] + burst_ns
            rw_pj += line_rw_pj
            if line_address == address:
                first = (completion - now_ns) + overhead_ns
            for _ in range(run - 1):
                completion = completion + hit_ns + burst_ns
                busy += burst_ns
                rw_pj += line_rw_pj
            bus_free_at[channel] = completion
            busy_ns[channel] = busy
            ready_at[slot] = completion
            line_address += run * LINE_SIZE
        device.rw_energy_pj = rw_pj
        device.act_pre_energy_pj = act_pj

        if is_write:
            device.writes += lines
        else:
            device.reads += lines
        if demand:
            controller.demand_bytes += LINE_SIZE
            controller.background_bytes += (lines - 1) * LINE_SIZE
        else:
            controller.background_bytes += lines * LINE_SIZE
        return first

    return line_access, block_transfer
