"""The outcome of one simulation, apart from the engine that produces it.

:class:`RunResult` is what the result store holds and what sweeps, reports
and the serve layer read back, so it lives apart from the numpy engine of
:mod:`repro.sim.simulator`: serving a cell from the store imports neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..stats import Stats


#: :class:`RunResult` fields that :meth:`RunResult.from_dict` requires to
#: be numbers.
_NUMERIC_FIELDS = ("cycles", "instructions", "references",
                   "nm_service_ratio", "nm_traffic_bytes", "fm_traffic_bytes",
                   "energy_pj", "flat_capacity_bytes")


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
        """Inverse of :meth:`as_dict`.  Raises unless ``data`` has the shape
        :meth:`as_dict` gives: a ``KeyError`` for a missing field, a
        ``TypeError`` for names that are not strings, stats that are not
        an object, or a number or counter that is not a finite
        float-sized number."""
        if not (isinstance(data, dict)
                and isinstance(data["design"], str)
                and isinstance(data["workload"], str)
                and isinstance(data.get("stats", {}), dict)):
            raise TypeError("not a run result document")
        try:
            # Adding to a float raises TypeError for anything but a number
            # and OverflowError for an integer no float can hold.
            numbers = [data[name] for name in _NUMERIC_FIELDS]
            total = sum(numbers, 0.0)
            stats = Stats().merge(data.get("stats", {}))
        except OverflowError:
            raise TypeError("a run result number exceeds float range")
        # An infinity or NaN makes the sum non-finite; so can large finite
        # numbers, which only then are checked one by one.
        if not math.isfinite(total) and not all(map(math.isfinite, numbers)):
            raise TypeError("a run result number is not finite")
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
