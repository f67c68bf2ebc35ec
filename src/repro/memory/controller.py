"""Memory controller front-end for a DRAM device.

The controller is the interface every memory-system design uses to talk to
the near and far memories.  It adds a fixed controller pipeline overhead,
distinguishes demand traffic (processor requests) from background traffic
(fills, writebacks, migrations, metadata) and moves multi-line blocks such
as sector migrations and page fills.  The timing itself is the pair of
kernels :func:`~repro.memory.kernels.make_kernels` compiles for the
controller once, at construction; both methods are thin calls into them.
"""

from __future__ import annotations

from ..common import LINE_SIZE
from ..params import DramParams
from .device import DramDevice
from .kernels import KIND_BACKGROUND, KIND_DEMAND, KIND_METADATA, make_kernels


class MemoryController:
    """Issues requests to one :class:`DramDevice` and reports its traffic
    split, which the device counts in lines."""

    #: Fixed controller/queueing pipeline overhead added to every access.
    CONTROLLER_OVERHEAD_NS = 2.0

    def __init__(self, params: DramParams) -> None:
        self.device = DramDevice(params)
        self._line, self._block = make_kernels(self)

    @property
    def name(self) -> str:
        return self.device.params.name

    @property
    def capacity_bytes(self) -> int:
        return self.device.params.capacity_bytes

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
        slot, row = self.device.locate(address)
        return self._line(slot, row, is_write, now_ns,
                          KIND_METADATA if metadata
                          else KIND_DEMAND if demand else KIND_BACKGROUND)

    def transfer_block(self, address: int, nbytes: int, is_write: bool,
                       now_ns: float, demand: bool = False) -> float:
        """Move a contiguous block (sector/page) as a streaming transfer.

        The block is issued as consecutive line-sized bursts; the returned
        latency is the time until the *first* line is available (critical
        word first) while bus occupancy accounts for the whole block.
        """
        return self._block(address, nbytes, is_write, now_ns, demand)

    # ------------------------------------------------------------------
    # measurement control
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Zero the traffic/energy/event counters (used after warm-up).

        Timing state (open rows, bus/bank occupancy) is deliberately kept so
        the measured region continues from a warmed-up device.
        """
        self.device.reset_counters()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def demand_bytes(self) -> int:
        device = self.device
        return (device.line_count - device.background_lines
                - device.metadata_lines) * LINE_SIZE

    @property
    def background_bytes(self) -> int:
        return self.device.background_lines * LINE_SIZE

    @property
    def metadata_bytes(self) -> int:
        return self.device.metadata_lines * LINE_SIZE

    @property
    def total_bytes(self) -> int:
        return self.device.total_bytes

    @property
    def read_bytes(self) -> int:
        return self.device.read_bytes

    @property
    def write_bytes(self) -> int:
        return self.device.write_bytes

    @property
    def energy_pj(self) -> float:
        return self.device.energy_pj
