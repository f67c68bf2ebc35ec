"""The paper's baseline: a system without 3D-stacked DRAM.

Every speedup in the evaluation is normalised to this design: all memory
requests are served by the DDR4 far memory and the flat capacity is the far
memory alone.

Paper anchor: the "no 3D-stacked DRAM" baseline of the methodology
(Section 5/Table 1); the denominator of every speedup and normalised
metric in Figures 2 and 12-18.
"""

from __future__ import annotations

from ..params import SystemConfig
from .base import MemorySystem


class FarMemoryOnly(MemorySystem):
    """All requests go to the far memory; there is no near memory."""

    name = "BASELINE"

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self._make_controllers(None, config.far)

    def _columns(self, addresses):
        """The far-memory ``(slot, row)`` of each address, wrapped to the
        far memory."""
        return self.far.locate(
            addresses % self.config.far.capacity_bytes)

    def _step(self):
        """Serve the request from far memory (the only memory there is):
        the step is the far memory's line kernel itself, whose ``kind``
        defaults to demand traffic."""
        return self.far.line_access

    @property
    def flat_capacity_bytes(self) -> int:
        return self.config.far.capacity_bytes
