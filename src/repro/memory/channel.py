"""DRAM channel state: a set of banks sharing one data bus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .bank import Bank


@dataclass
class Channel:
    """One DRAM channel: per-bank state plus shared data-bus occupancy.

    The data bus is a single resource whose next-free time advances by the
    burst duration of every transfer; this is what limits per-channel
    bandwidth and creates queueing under load.
    """

    banks: List[Bank]
    bus_free_at_ns: float = 0.0

    #: Cumulative busy time of the data bus (for utilisation statistics).
    busy_ns: float = 0.0

    @classmethod
    def with_banks(cls, num_banks: int) -> "Channel":
        return cls(banks=[Bank() for _ in range(num_banks)])
