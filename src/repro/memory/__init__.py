"""DRAM substrate: timing, devices, controllers, energy.

This package is the reproduction's stand-in for DRAMSim2: an event-based
(bank/row-buffer/bus timestamp) model of the HBM2 near memory and the
DDR4-3200 far memory configured in Table 1 of the paper.

The timing arithmetic lives in one place,
:func:`repro.memory.kernels.make_kernels`.  A :class:`MemoryController`
compiles its kernels once and its ``access`` / ``transfer_block``
methods call them.  :class:`DramDevice` is the state the kernels
advance: flat per-bank lists indexed by one integer slot
(``channel * banks_per_channel + bank``), per-channel bus lists, and
integer line counters, from which it derives traffic, bus-busy time and
energy on read.  Its slot table, built once per device, is
the one definition of the address map, ``address -> (slot, row)``:
:meth:`~DramDevice.locate` reads it, the line kernel takes the pair it
gives instead of an address, and the block kernel reads it once per
aligned span.  The kernels read their latencies
and energies straight from the device's
:class:`~repro.params.DramParams`.
"""

from .controller import MemoryController
from .device import DramDevice

__all__ = [
    "MemoryController",
    "DramDevice",
]
