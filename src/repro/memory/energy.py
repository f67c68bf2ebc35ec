"""Dynamic-energy accounting for DRAM devices.

The paper reports dynamic memory energy only (Figure 18) using per-bit
read/write+I/O energy and per-activation ACT/PRE energy from Table 1;
refresh/static energy is explicitly excluded, and we follow that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..params import DramParams


@dataclass
class EnergyModel:
    """Dynamic-energy parameters of one DRAM device.

    The timing kernels add ``rw_pj_per_bit * 512`` per 64 B line to
    :attr:`~repro.memory.device.DramDevice.rw_energy_pj` and ``act_pre_pj``
    per row activation to
    :attr:`~repro.memory.device.DramDevice.act_pre_energy_pj`, one addend
    at a time in access order.  Both sums are kept as float accumulators
    beside the line and per-bank activation counts rather than derived
    from them afterwards, so they stay bit-identical to the per-line
    sequence whichever kernel or call site issued the line.
    """

    rw_pj_per_bit: float
    act_pre_pj: float

    @classmethod
    def from_params(cls, params: DramParams) -> "EnergyModel":
        return cls(
            rw_pj_per_bit=params.rw_energy_pj_per_bit,
            act_pre_pj=params.act_pre_energy_nj * 1000.0,
        )
