"""Event-based DRAM device state, as flat per-bank and per-channel lists.

A :class:`DramDevice` holds the timing state of one memory plus its
traffic and energy counters.  Every bank has one integer *slot*,
``channel * banks_per_channel + bank``, and the per-bank state is a set of
lists indexed by it; the per-channel state is a pair of lists indexed by
the channel, which ``channel_of[slot]`` gives.

The address map is one table, built at construction: ``slot_table`` holds
the bank slot of every ``span``-aligned span (``span`` is the gcd of the
channel interleave and the row size, so a span's lines share a channel, a
bank and a row) within one ``period`` of the map, the lcm of the channel
rotation (``interleave * channels``) and the bank rotation
(``row_bytes * channels * banks``).  An address ``a`` lives in bank slot
``slot_table[a % period // span]`` and row ``a // row_stride``, with
``row_stride = row_bytes * channels * banks``.  :meth:`DramDevice.locate`
reads it for one address or a whole column, and the block kernel and the
design steps that map a runtime frame read it inline from
:attr:`DramDevice.address_map`.  The timing kernels
(:mod:`repro.memory.kernels`) take a line's ``(slot, row)`` and compute
each access's completion time from

* the bank's readiness (previous command to the same bank),
* the row-buffer state (hit / miss / empty),
* the channel data bus occupancy (this is what bounds bandwidth), and
* the burst transfer time of one 64 B line.

There is no cycle loop: state is a handful of timestamps advanced per
request, which captures the latency/bandwidth asymmetry between HBM2 and
DDR4 (the first-order effect behind every result in the paper) while staying
fast enough for Python.
"""

from __future__ import annotations

import math

import numpy as np

from ..common import LINE_SIZE
from ..params import DramParams


class DramDevice:
    """One DRAM device (the near memory or the far memory).

    Channels interleave at ``channel_interleave_bytes`` granularity so
    that streaming accesses spread over all channels; banks interleave at
    row granularity within a channel.

    Per bank slot: ``open_row`` (-1 while the bank is precharged),
    ``ready_at_ns`` (earliest time a new command can use the bank) and the
    ``row_hits`` / ``row_misses`` / ``activations`` event counts.  Per
    channel: ``bus_free_at_ns`` (the data bus's next free time) and
    ``busy_ns`` (its cumulative busy time).  The kernels hold references
    to these lists, so they are only ever updated in place.
    """

    def __init__(self, params: DramParams) -> None:
        self.params = params
        banks = params.banks_per_channel
        slots = params.channels * banks
        self.open_row = [-1] * slots
        self.ready_at_ns = [0.0] * slots
        self.row_hits = [0] * slots
        self.row_misses = [0] * slots
        self.activations = [0] * slots
        self.channel_of = [slot // banks for slot in range(slots)]
        self.bus_free_at_ns = [0.0] * params.channels
        self.busy_ns = [0.0] * params.channels
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

    def locate(self, address):
        """``(slot, row)`` of ``address``, one Python int or an int64
        ndarray for a whole column, read from the slot table."""
        slot_table, period, span, row_stride = self.address_map
        index = address % period // span
        if isinstance(index, int):
            return slot_table[index], address // row_stride
        return self._slot_array[index], address // row_stride

    def reset_counters(self) -> None:
        """Zero the line, dynamic-energy (pJ) and per-bank event counters;
        the timing state (open rows, readiness, bus occupancy) stays."""
        self.reads = 0
        self.writes = 0
        self.rw_energy_pj = 0.0
        self.act_pre_energy_pj = 0.0
        for counts in (self.row_hits, self.row_misses, self.activations):
            counts[:] = [0] * len(counts)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def read_bytes(self) -> int:
        return self.reads * LINE_SIZE

    @property
    def write_bytes(self) -> int:
        return self.writes * LINE_SIZE

    @property
    def total_bytes(self) -> int:
        return (self.reads + self.writes) * LINE_SIZE

    @property
    def energy_pj(self) -> float:
        """Dynamic energy: read/write plus activate/precharge."""
        return self.rw_energy_pj + self.act_pre_energy_pj

    @property
    def row_hit_rate(self) -> float:
        hits = sum(self.row_hits)
        total = hits + sum(self.row_misses)
        return hits / total if total else 0.0
