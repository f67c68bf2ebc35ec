"""DRAM bank state: the open row and bank-level timing."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Bank:
    """One DRAM bank: which row is open and when the bank is next free.

    ``open_row`` is ``None`` while the bank is precharged (no open row).
    ``ready_at_ns`` is the earliest time at which a new command can use
    the bank.  The timing kernels (:mod:`repro.memory.kernels`) read and
    advance both, and count the row-buffer events below.
    """

    open_row: int | None = None
    ready_at_ns: float = 0.0

    #: Event counters (read by the device for row-buffer statistics).
    row_hits: int = 0
    row_misses: int = 0
    activations: int = 0
