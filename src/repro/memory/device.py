"""Event-based DRAM device state, as flat per-bank and per-channel lists.

A :class:`DramDevice` holds the timing state of one memory plus its
traffic and energy counters.  Every bank has one integer *slot*,
``channel * banks_per_channel + bank``, and the per-bank state is a set of
lists indexed by it; the per-channel state is a pair of lists indexed by
the channel, which ``channel_of[slot]`` gives.  :meth:`DramDevice.locate`
maps a device address to its ``(slot, row)``; the timing kernels
(:mod:`repro.memory.kernels`) take that pair and compute each access's
completion time from

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
        #: ``(channel_interleave_bytes, channels, banks_per_channel,
        #: row_bytes)``: the constants of :meth:`locate`, also read by the
        #: design steps that map a runtime address inline.
        self.address_map = (params.channel_interleave_bytes, params.channels,
                            banks, params.row_bytes)
        self.reset_counters()

    def locate(self, address):
        """``(slot, row)`` of ``address`` (one Python int, or an int64
        ndarray for a whole column): the channel rotates every
        ``channel_interleave_bytes``, the bank every row within the
        channel."""
        interleave, channels, banks, row_bytes = self.address_map
        rows = address // row_bytes
        return (address // interleave % channels * banks
                + rows // channels % banks, rows // (channels * banks))

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
