"""Event-based DRAM device state.

A :class:`DramDevice` holds the channels and banks of one memory plus its
traffic and energy counters, as plain attributes.  The timing kernels
(:mod:`repro.memory.kernels`) map each access onto a channel, bank and
row and compute its completion time from

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

from typing import List

from ..params import DramParams
from .channel import Channel
from .energy import EnergyModel
from .timing import DramTimings


class DramDevice:
    """One DRAM device (the near memory or the far memory).

    Channels interleave at ``channel_interleave_bytes`` granularity so
    that streaming accesses spread over all channels; banks interleave at
    row granularity within a channel.
    """

    def __init__(self, params: DramParams) -> None:
        self.params = params
        self.timings = DramTimings.from_params(params)
        self.channels: List[Channel] = [
            Channel.with_banks(params.banks_per_channel)
            for _ in range(params.channels)
        ]
        self.energy = EnergyModel.from_params(params)
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the line, byte and dynamic-energy (pJ) counters."""
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.rw_energy_pj = 0.0
        self.act_pre_energy_pj = 0.0

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def energy_pj(self) -> float:
        """Dynamic energy: read/write plus activate/precharge."""
        return self.rw_energy_pj + self.act_pre_energy_pj

    @property
    def row_hit_rate(self) -> float:
        hits = sum(b.row_hits for c in self.channels for b in c.banks)
        total = hits + sum(b.row_misses for c in self.channels for b in c.banks)
        return hits / total if total else 0.0

    def summary(self) -> dict:
        return {
            "name": self.params.name,
            "reads": self.reads,
            "writes": self.writes,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "row_hit_rate": self.row_hit_rate,
            "energy_pj": self.energy_pj,
        }
