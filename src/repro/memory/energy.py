"""Dynamic-energy accounting for DRAM devices.

The paper reports dynamic memory energy only (Figure 18) using per-bit
read/write+I/O energy and per-activation ACT/PRE energy from Table 1;
refresh/static energy is explicitly excluded, and we follow that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common import EnergyCounter
from ..params import DramParams


@dataclass
class EnergyModel:
    """Dynamic-energy parameters and accumulated energy of one DRAM device.

    The timing kernels add ``rw_pj_per_bit * 512`` per 64 B line and
    ``act_pre_pj`` per row activation to :attr:`counter`.
    """

    rw_pj_per_bit: float
    act_pre_pj: float
    counter: EnergyCounter

    @classmethod
    def from_params(cls, params: DramParams) -> "EnergyModel":
        return cls(
            rw_pj_per_bit=params.rw_energy_pj_per_bit,
            act_pre_pj=params.act_pre_energy_nj * 1000.0,
            counter=EnergyCounter(),
        )

    @property
    def total_pj(self) -> float:
        return self.counter.total_pj
