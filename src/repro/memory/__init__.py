"""DRAM substrate: one object per memory, with its timing and energy.

This package is the reproduction's stand-in for DRAMSim2: an event-based
(bank/row-buffer/bus timestamp) model of the HBM2 near memory and the
DDR4-3200 far memory configured in Table 1 of the paper.

Each memory is one :class:`MemoryController`.  It holds the timing state
(flat per-bank lists indexed by one integer slot,
``channel * banks_per_channel + bank``, and per-channel bus lists), the
integer line counters from which it derives traffic, bus-busy time and
energy on read, and its slot table, the one definition of the address
map ``address -> (slot, row)`` that :meth:`~MemoryController.locate`
reads.  The timing arithmetic lives in one place,
:func:`repro.memory.kernels.make_kernels`, which each memory calls once,
at construction, for its one pair of kernels: the line kernel takes the
``(slot, row)`` pair instead of an address, and the block kernel reads
the slot table once per aligned span.  The ``access`` /
``transfer_block`` methods and every design step run on that pair.
"""

from .controller import MemoryController

__all__ = [
    "MemoryController",
]
