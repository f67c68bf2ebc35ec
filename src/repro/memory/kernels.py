"""The DRAM timing model: inlined access kernels over live controller state.

:func:`make_kernels` compiles one
:class:`~repro.memory.controller.MemoryController` into a pair of closures
and is the only implementation of DRAM timing and energy in the package.
The controller builds its own pair once and its
:meth:`~repro.memory.controller.MemoryController.access` /
:meth:`~repro.memory.controller.MemoryController.transfer_block` methods
are thin calls into them; each design step (``MemorySystem._step``, which
both ``MemorySystem.fast_path`` and ``MemorySystem.access`` run) calls
:func:`make_kernels` for a pair of its own and skips the method call.

Per 64 B line a kernel maps the address to ``(channel, bank, row)``,
classifies the row-buffer state (hit / miss / empty), waits for the bank,
serialises the burst on the channel's data bus, and accounts traffic and
dynamic energy.  All state lives in the device objects (banks, channels,
counters), which are plain data, so every pair of kernels compiled for one
controller shares it: a design step's inlined bursts interleave freely
with the controller methods its rare events (evictions, migrations, swaps)
call.  ``tests/test_fastpath.py`` pins the kernels against the frozen
golden ``tests/data/golden/dram_timing.json`` float for float and
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

LineKernel = Callable[[int, bool, float, int], float]
BlockKernel = Callable[[int, int, bool, float, bool], float]


def make_kernels(controller: "MemoryController") -> Tuple[LineKernel,
                                                          BlockKernel]:
    """Return ``(line_access, block_transfer)`` kernels for ``controller``.

    ``line_access(address, is_write, now_ns, kind)`` issues one 64 B access
    and returns its latency in ns (controller overhead included); ``kind``
    selects the traffic class (:data:`KIND_DEMAND` / :data:`KIND_BACKGROUND`
    / :data:`KIND_METADATA`).  ``block_transfer(address, nbytes, is_write,
    now_ns, demand)`` streams a block as consecutive line bursts, all
    issued at ``now_ns``, and returns the latency of the first line
    (critical word first); only that line is demand traffic.
    """
    device = controller.device
    params = device.params
    timings = device.timings
    channels = device.channels
    num_channels = params.channels
    interleave = params.channel_interleave_bytes
    row_bytes = params.row_bytes
    banks_per_channel = params.banks_per_channel
    banks_stride = num_channels * banks_per_channel
    # Lines inside one aligned span share a channel, a bank and a row.
    span = math.gcd(interleave, row_bytes)
    hit_ns = timings.row_hit_latency_ns()
    empty_ns = timings.row_empty_latency_ns()
    miss_ns = timings.row_miss_latency_ns()
    burst_ns = timings.burst_ns(LINE_SIZE)
    line_rw_pj = device.energy.rw_pj_per_bit * LINE_SIZE * 8
    act_pre_pj = device.energy.act_pre_pj
    overhead_ns = controller.CONTROLLER_OVERHEAD_NS

    def line_access(address: int, is_write: bool, now_ns: float,
                    kind: int) -> float:
        channel = channels[(address // interleave) % num_channels]
        row_global = address // row_bytes
        bank = channel.banks[(row_global // num_channels) % banks_per_channel]
        row = row_global // banks_stride

        open_row = bank.open_row
        if open_row is None:
            array_latency = empty_ns
            bank.activations += 1
            device.act_pre_energy_pj += act_pre_pj
        elif open_row == row:
            array_latency = hit_ns
            bank.row_hits += 1
        else:
            array_latency = miss_ns
            bank.row_misses += 1
            bank.activations += 1
            device.act_pre_energy_pj += act_pre_pj
        bank.open_row = row

        ready = bank.ready_at_ns
        if now_ns > ready:
            ready = now_ns
        data_ready = ready + array_latency
        begin = channel.bus_free_at_ns
        if data_ready > begin:
            begin = data_ready
        completion = begin + burst_ns
        channel.bus_free_at_ns = completion
        channel.busy_ns += burst_ns
        bank.ready_at_ns = completion

        device.rw_energy_pj += line_rw_pj
        if is_write:
            device.write_bytes += LINE_SIZE
            device.writes += 1
        else:
            device.read_bytes += LINE_SIZE
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
            channel = channels[(line_address // interleave) % num_channels]
            row_global = line_address // row_bytes
            bank = channel.banks[(row_global // num_channels)
                                 % banks_per_channel]
            row = row_global // banks_stride

            open_row = bank.open_row
            if open_row is None:
                array_latency = empty_ns
                bank.activations += 1
                act_pj += act_pre_pj
            elif open_row == row:
                array_latency = hit_ns
                bank.row_hits += 1
            else:
                array_latency = miss_ns
                bank.row_misses += 1
                bank.activations += 1
                act_pj += act_pre_pj
            bank.open_row = row

            ready = bank.ready_at_ns
            if now_ns > ready:
                ready = now_ns
            data_ready = ready + array_latency
            begin = channel.bus_free_at_ns
            if data_ready > begin:
                begin = data_ready
            completion = begin + burst_ns
            busy = channel.busy_ns + burst_ns
            rw_pj += line_rw_pj
            if line_address == address:
                first = (completion - now_ns) + overhead_ns

            run_end = min(end, (line_address // span + 1) * span)
            run = -((line_address - run_end) // LINE_SIZE)
            for _ in range(run - 1):
                completion = completion + hit_ns + burst_ns
                busy += burst_ns
                rw_pj += line_rw_pj
            bank.row_hits += run - 1
            channel.bus_free_at_ns = completion
            channel.busy_ns = busy
            bank.ready_at_ns = completion
            line_address += run * LINE_SIZE
        device.rw_energy_pj = rw_pj
        device.act_pre_energy_pj = act_pj

        block_bytes = lines * LINE_SIZE
        if is_write:
            device.write_bytes += block_bytes
            device.writes += lines
        else:
            device.read_bytes += block_bytes
            device.reads += lines
        if demand:
            controller.demand_bytes += LINE_SIZE
            controller.background_bytes += block_bytes - LINE_SIZE
        else:
            controller.background_bytes += block_bytes
        return first

    return line_access, block_transfer
