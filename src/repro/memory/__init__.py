"""DRAM substrate: timing, banks, channels, devices, controllers, energy.

This package is the reproduction's stand-in for DRAMSim2: an event-based
(bank/row-buffer/bus timestamp) model of the HBM2 near memory and the
DDR4-3200 far memory configured in Table 1 of the paper.

The timing and energy arithmetic lives in one place,
:func:`repro.memory.kernels.make_kernels`.  A :class:`MemoryController`
compiles its kernels once and its ``access`` / ``transfer_block``
methods call them; :class:`DramDevice`, :class:`Bank`, :class:`Channel`
and :class:`EnergyModel` are the plain state the kernels advance, plus
reporting properties.  :class:`DramTimings` derives the nanosecond
latencies the kernels use.
"""

from .bank import Bank
from .channel import Channel
from .controller import MemoryController
from .device import DramDevice
from .energy import EnergyModel
from .timing import DramTimings

__all__ = [
    "Bank",
    "Channel",
    "MemoryController",
    "DramDevice",
    "EnergyModel",
    "DramTimings",
]
