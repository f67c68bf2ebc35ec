"""Hybrid2 memory system: the paper's proposed design as a
:class:`~repro.baselines.base.MemorySystem`.

The class is a thin adapter: it owns the near- and far-memory controllers
and takes its columns and step from the :class:`~repro.core.dcmc.DCMC`,
which implements the access path, eviction flow and migration decision.
"""

from __future__ import annotations

from ..baselines.base import MemorySystem
from ..params import SystemConfig
from ..stats import Stats
from .dcmc import DCMC


class Hybrid2System(MemorySystem):
    """Hybrid2: a small sectored DRAM cache plus flat-space migration."""

    name = "HYBRID2"

    def __init__(self, config: SystemConfig, *, migration_mode: str = "policy",
                 model_metadata: bool = True, cache_only: bool = False,
                 seed: int = 17) -> None:
        super().__init__(config)
        self._make_controllers(config.near, config.far)
        self.dcmc = DCMC(config, self.near, self.far,
                         migration_mode=migration_mode,
                         model_metadata=model_metadata,
                         cache_only=cache_only, seed=seed)

    def _columns(self, addresses):
        return self.dcmc.columns(addresses)

    def _step(self):
        """Delegated to the DCMC, which owns every structure."""
        return self.dcmc.step()

    @property
    def flat_capacity_bytes(self) -> int:
        return self.dcmc.flat_capacity_bytes

    def _extra_stats(self, stats: Stats) -> None:
        self.dcmc.extra_stats(stats)
