"""One DRAM memory: its timing state, address map, counters and request path.

A :class:`MemoryController` is the near memory or the far memory, whole.
Every bank has one integer *slot*, ``channel * banks_per_channel + bank``,
and the per-bank state is a set of lists indexed by it; the per-channel
bus state is a list indexed by the channel, which ``channel_of[slot]``
gives.

The address map is one table, built at construction: ``slot_table`` holds
the bank slot of every ``span``-aligned span (``span`` is the gcd of the
channel interleave and the row size, so a span's lines share a channel, a
bank and a row) within one ``period`` of the map, the lcm of the channel
rotation (``interleave * channels``) and the bank rotation
(``row_bytes * channels * banks``).  An address ``a`` lives in bank slot
``slot_table[a % period // span]`` and row ``a // row_stride``, with
``row_stride = row_bytes * channels * banks``.
:meth:`MemoryController.locate` reads it for one address or a whole
column, and the block kernel and the design steps that map a runtime
frame read it inline from :attr:`MemoryController.address_map`.

The timing is the memory's one pair of kernels,
:func:`~repro.memory.kernels.make_kernels`, compiled at construction and
exposed as :attr:`~MemoryController.line_access` and
:attr:`~MemoryController.block_transfer`.  Each access's completion time
follows from

* the bank's readiness (previous command to the same bank),
* the row-buffer state (hit / miss / empty),
* the channel data bus occupancy (this is what bounds bandwidth), and
* the burst transfer time of one 64 B line.

There is no cycle loop: state is a handful of timestamps advanced per
request, which captures the latency/bandwidth asymmetry between HBM2 and
DDR4 (the first-order effect behind every result in the paper) while
staying fast enough for Python.  The kernels count integers; traffic
bytes, bus-busy time and energy are derived from them on read.
"""

from __future__ import annotations

import math

import numpy as np

from ..common import LINE_SIZE
from ..params import DramParams
from .kernels import KIND_BACKGROUND, KIND_DEMAND, KIND_METADATA, make_kernels


#: Terms per ``np.cumsum`` call in :func:`fold`, which bounds its buffer.
FOLD_CHUNK = 1 << 16


def fold(term: float, count: int) -> float:
    """``0.0 + term + ... + term`` (``count`` terms) added left to right,
    as a float accumulator taking ``term`` once per event would, bit for
    bit; ``count * term`` rounds differently.  ``np.cumsum`` adds
    sequentially, unlike the pairwise ``np.sum``."""
    total = 0.0
    while count > 0:
        chunk = min(count, FOLD_CHUNK)
        terms = np.full(chunk + 1, term)
        terms[0] = total
        total = float(np.cumsum(terms)[-1])
        count -= chunk
    return total


class MemoryController:
    """One DRAM memory (the near memory or the far memory).

    Channels interleave at ``channel_interleave_bytes`` granularity so
    that streaming accesses spread over all channels; banks interleave at
    row granularity within a channel.

    Per bank slot: ``open_row`` (-1 while the bank is precharged),
    ``ready_at_ns`` (earliest time a new command can use the bank),
    ``lines`` (64 B lines issued since construction) and the
    ``activations`` / ``row_misses`` event counts.  Per channel:
    ``bus_free_at_ns`` (the data bus's next free time).  ``writes``,
    ``background_lines`` and ``metadata_lines`` count lines memory-wide.
    The kernels hold references to these lists, so they are only ever
    updated in place.

    Everything else is derived on read: ``reads``, the per-slot
    ``row_hits`` (lines since the reset that were not activations), the
    per-channel ``busy_ns`` (one ``burst_ns`` per line, warm-up
    included), the traffic bytes per class and both energies, each float
    a :func:`fold` of its one constant over its count.  Every term of
    such a sum is the same, so the order the lines were issued in never
    matters.
    """

    #: Fixed controller/queueing pipeline overhead added to every access.
    CONTROLLER_OVERHEAD_NS = 2.0

    def __init__(self, params: DramParams) -> None:
        self.params = params
        banks = params.banks_per_channel
        slots = params.channels * banks
        self.open_row = [-1] * slots
        self.ready_at_ns = [0.0] * slots
        self.lines = [0] * slots
        self.row_misses = [0] * slots
        self.activations = [0] * slots
        self.channel_of = [slot // banks for slot in range(slots)]
        self.bus_free_at_ns = [0.0] * params.channels
        #: One 64 B line on a channel's data bus (DDR: two transfers per
        #: cycle).
        self.burst_ns = LINE_SIZE * (params.clock_ns
                                     / (params.bus_bits / 8 * 2))
        # The channel rotates every ``interleave`` bytes, the bank every
        # row within the channel; both repeat within ``period``.
        interleave = params.channel_interleave_bytes
        channels = params.channels
        row_bytes = params.row_bytes
        span = math.gcd(interleave, row_bytes)
        row_stride = row_bytes * slots
        period = math.lcm(interleave * channels, row_stride)
        spans = np.arange(0, period, span, dtype=np.int64)
        self._slot_array = (spans // interleave % channels * banks
                            + spans // row_bytes // channels % banks)
        #: ``(slot_table, period, span, row_stride)``: ``address`` lives in
        #: slot ``slot_table[address % period // span]``, row
        #: ``address // row_stride``.
        self.address_map = (self._slot_array.tolist(), period, span,
                            row_stride)
        self.reset_counters()
        #: The memory's one kernel pair, which every design step binds.
        #: ``make_kernels`` is read from this module's globals, so a
        #: wrapper bound over that name sees every line and block.
        self.line_access, self.block_transfer = make_kernels(self)

    @property
    def capacity_bytes(self) -> int:
        return self.params.capacity_bytes

    def locate(self, address):
        """``(slot, row)`` of ``address``, one Python int or an int64
        ndarray for a whole column, read from the slot table."""
        slot_table, period, span, row_stride = self.address_map
        index = address % period // span
        if isinstance(index, int):
            return slot_table[index], address // row_stride
        return self._slot_array[index], address // row_stride

    # ------------------------------------------------------------------
    # accesses
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool, now_ns: float,
               demand: bool = True, metadata: bool = False) -> float:
        """Issue one 64 B access and return its latency in ns.

        ``demand`` marks processor-critical accesses; everything else
        (fills beyond the critical line, writebacks, migrations) is
        background traffic.  ``metadata`` additionally tags remap-table
        style bookkeeping traffic so it can be reported separately.
        """
        slot, row = self.locate(address)
        return self.line_access(slot, row, is_write, now_ns,
                                KIND_METADATA if metadata
                                else KIND_DEMAND if demand
                                else KIND_BACKGROUND)

    def transfer_block(self, address: int, nbytes: int, is_write: bool,
                       now_ns: float, demand: bool = False) -> float:
        """Move a contiguous block (sector/page) as a streaming transfer.

        The block is issued as consecutive line-sized bursts; the returned
        latency is the time until the *first* line is available (critical
        word first) while bus occupancy accounts for the whole block.
        """
        return self.block_transfer(address, nbytes, is_write, now_ns, demand)

    def reset_counters(self) -> None:
        """Restart the line, traffic, energy and per-bank event counts
        (used after warm-up).  The timing state (open rows, readiness, bus
        occupancy) and the bus-busy time stay, so the measured region
        continues from a warmed-up memory."""
        self.lines_at_reset = self.lines.copy()
        self.writes = 0
        self.background_lines = 0
        self.metadata_lines = 0
        for counts in (self.row_misses, self.activations):
            counts[:] = [0] * len(counts)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def line_count(self) -> int:
        """64 B lines issued since the last reset."""
        return sum(self.lines) - sum(self.lines_at_reset)

    @property
    def reads(self) -> int:
        return self.line_count - self.writes

    @property
    def row_hits(self) -> list[int]:
        """Per slot: lines since the last reset that found their row open."""
        return [lines - base - activations for lines, base, activations
                in zip(self.lines, self.lines_at_reset, self.activations)]

    @property
    def busy_ns(self) -> list[float]:
        """Per channel: cumulative data-bus busy time since construction."""
        banks = self.params.banks_per_channel
        lines = self.lines
        return [fold(self.burst_ns, sum(lines[first:first + banks]))
                for first in range(0, len(lines), banks)]

    @property
    def rw_energy_pj(self) -> float:
        """Read/write energy since the last reset, per 64 B line."""
        return fold(self.params.rw_energy_pj_per_bit * LINE_SIZE * 8,
                    self.line_count)

    @property
    def act_pre_energy_pj(self) -> float:
        """Activate/precharge energy since the last reset, per activation."""
        return fold(self.params.act_pre_energy_nj * 1000.0,
                    sum(self.activations))

    @property
    def energy_pj(self) -> float:
        """Dynamic energy: read/write plus activate/precharge."""
        return self.rw_energy_pj + self.act_pre_energy_pj

    @property
    def read_bytes(self) -> int:
        return self.reads * LINE_SIZE

    @property
    def write_bytes(self) -> int:
        return self.writes * LINE_SIZE

    @property
    def total_bytes(self) -> int:
        return self.line_count * LINE_SIZE

    @property
    def demand_bytes(self) -> int:
        return (self.line_count - self.background_lines
                - self.metadata_lines) * LINE_SIZE

    @property
    def background_bytes(self) -> int:
        return self.background_lines * LINE_SIZE

    @property
    def metadata_bytes(self) -> int:
        return self.metadata_lines * LINE_SIZE

    @property
    def row_hit_rate(self) -> float:
        hits = sum(self.row_hits)
        total = hits + sum(self.row_misses)
        return hits / total if total else 0.0
