"""The outcome of one simulation, apart from the engine that produces it.

:class:`RunResult` is what the result store holds and what sweeps, reports
and the serve layer read back, so it lives apart from the numpy engine of
:mod:`repro.sim.simulator`: serving a cell from the store imports neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stats import Stats


@dataclass
class RunResult:
    """Outcome of simulating one workload on one memory-system design."""

    design: str
    workload: str
    cycles: float
    instructions: int
    references: int
    nm_service_ratio: float
    nm_traffic_bytes: float
    fm_traffic_bytes: float
    energy_pj: float
    flat_capacity_bytes: int
    stats: Stats = field(default_factory=Stats)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def as_dict(self) -> dict:
        """JSON-serialisable rendering (used by the result store and CLI)."""
        return {
            "design": self.design,
            "workload": self.workload,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "references": self.references,
            "nm_service_ratio": self.nm_service_ratio,
            "nm_traffic_bytes": self.nm_traffic_bytes,
            "fm_traffic_bytes": self.fm_traffic_bytes,
            "energy_pj": self.energy_pj,
            "flat_capacity_bytes": self.flat_capacity_bytes,
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Inverse of :meth:`as_dict`."""
        stats = Stats()
        stats.merge(data.get("stats", {}))
        return cls(
            design=data["design"],
            workload=data["workload"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            references=data["references"],
            nm_service_ratio=data["nm_service_ratio"],
            nm_traffic_bytes=data["nm_traffic_bytes"],
            fm_traffic_bytes=data["fm_traffic_bytes"],
            energy_pj=data["energy_pj"],
            flat_capacity_bytes=data["flat_capacity_bytes"],
            stats=stats,
        )

    @property
    def time_ns(self) -> float:
        """Wall-clock time of the simulated region (3.2 GHz cores)."""
        return self.cycles / 3.2

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup of this run relative to ``baseline`` (same workload)."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles
