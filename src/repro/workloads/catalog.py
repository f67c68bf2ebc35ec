"""Workload catalog: the 30 benchmarks of Table 2.

Each entry reproduces the paper's reported MPKI and memory footprint
(Table 2) and adds a qualitative locality classification derived from the
paper's own discussion (Section 5.2) and the well-known behaviour of the
benchmarks:

* scientific/stencil codes (lbm, bwaves, roms, fotonik3d, the NAS CG/SP/BT/LU
  kernels) touch most of every page they visit (high region coverage);
* pointer-chasing codes (mcf, omnetpp, xalancbmk) touch only a line or two
  per page (poor spatial locality) but have a pronounced hot working set;
* ``dc.B`` is streaming with little reuse, ``deepsjeng`` touches a wide
  footprint with very poor spatial locality — the two cases the paper calls
  out as hostile to coarse-grained caches.

The footprints are scaled together with the memory capacities (see
:mod:`repro.params`), so "footprint larger than NM" relations from the paper
are preserved.

:class:`WorkloadSpec` lives here rather than beside the numpy generators of
:mod:`repro.workloads.synthetic`, so naming and keying a workload needs no
numpy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List

from ..common import GIB, LINE_SIZE, align_down


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic workload."""

    name: str
    suite: str                     # "SPEC" (multi-programmed) or "NAS" (multi-threaded)
    mpki_class: str                # "high" | "medium" | "low"
    mpki: float                    # paper Table 2 LLC MPKI
    footprint_gb: float            # paper Table 2 footprint in GB
    #: Fraction of a region's 64 B lines touched when the region is visited.
    region_coverage: float = 0.75
    #: Size of the spatial-locality region (an OS page by default).
    region_bytes: int = 4096
    #: Fraction of the footprint's regions that form the hot working set.
    hot_fraction: float = 0.1
    #: Fraction of region visits that go to the hot working set.
    hot_access_fraction: float = 0.6
    #: Upper bound on the hot set, in regions per trace.  Real workloads keep
    #: a bounded hot working set regardless of their total footprint; without
    #: the cap, large-footprint workloads would show almost no reuse within a
    #: tractable trace length.
    hot_region_cap: int = 16
    write_fraction: float = 0.3
    #: Streaming workloads sweep regions in order with negligible reuse.
    streaming: bool = False

    def scaled_footprint_bytes(self, scale: int) -> int:
        """Footprint in bytes after dividing the paper size by ``scale``."""
        raw = int(self.footprint_gb * GIB / scale)
        raw = align_down(raw, self.region_bytes)
        return max(4 * self.region_bytes, raw)

    def gap_instructions(self) -> int:
        """Mean instructions between LLC misses implied by the MPKI."""
        return max(1, int(round(1000.0 / max(self.mpki, 0.01))))

    def lines_per_region(self) -> int:
        return max(1, self.region_bytes // LINE_SIZE)

    def lines_per_visit(self) -> int:
        """How many distinct lines a region visit touches."""
        return max(1, int(round(self.region_coverage * self.lines_per_region())))

    def as_dict(self) -> dict:
        """JSON-serialisable rendering.

        Specs are frozen (hashable and picklable), so this dictionary — used
        by the sweep engine's job hash and the CLI — is a complete, stable
        description of the workload.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)


#: MPKI class labels used throughout the evaluation.
MPKI_CLASSES = ("high", "medium", "low")


def _spec(name: str, suite: str, klass: str, mpki: float, footprint: float,
          coverage: float, hot_access: float = 0.6, hot_fraction: float = 0.1,
          write: float = 0.3, streaming: bool = False) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, suite=suite, mpki_class=klass, mpki=mpki,
        footprint_gb=footprint, region_coverage=coverage,
        hot_access_fraction=hot_access, hot_fraction=hot_fraction,
        write_fraction=write, streaming=streaming,
    )


#: The 30 workloads of Table 2 (10 per MPKI class).
WORKLOADS: List[WorkloadSpec] = [
    # ----------------------------- high MPKI -----------------------------
    _spec("cg.D", "NAS", "high", 90.6, 7.8, coverage=0.45, hot_access=0.85,
          hot_fraction=0.08, write=0.25),
    _spec("sp.D", "NAS", "high", 30.1, 11.2, coverage=0.9, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("bt.D", "NAS", "high", 30.1, 10.7, coverage=0.9, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("fotonik3d", "SPEC", "high", 28.1, 6.4, coverage=0.95, hot_access=0.8,
          hot_fraction=0.1, write=0.3),
    _spec("lbm", "SPEC", "high", 27.4, 3.1, coverage=0.95, hot_access=0.8,
          hot_fraction=0.15, write=0.45),
    _spec("bwaves", "SPEC", "high", 26.8, 3.3, coverage=0.92, hot_access=0.8,
          hot_fraction=0.15, write=0.3),
    _spec("lu.D", "NAS", "high", 25.8, 2.9, coverage=0.8, hot_access=0.8,
          hot_fraction=0.15, write=0.35),
    _spec("mcf", "SPEC", "high", 25.8, 0.1, coverage=0.15, hot_access=0.8,
          hot_fraction=0.1, write=0.25),
    _spec("gcc", "SPEC", "high", 21.2, 1.6, coverage=0.6, hot_access=0.85,
          hot_fraction=0.1, write=0.3),
    _spec("roms", "SPEC", "high", 15.5, 2.3, coverage=0.9, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    # ---------------------------- medium MPKI ----------------------------
    _spec("mg.C", "NAS", "medium", 14.2, 2.8, coverage=0.85, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("omnetpp", "SPEC", "medium", 9.8, 1.5, coverage=0.1, hot_access=0.85,
          hot_fraction=0.08, write=0.3),
    _spec("is.C", "NAS", "medium", 9.0, 1.0, coverage=0.7, hot_access=0.8,
          hot_fraction=0.1, write=0.4),
    _spec("dc.B", "NAS", "medium", 8.4, 4.0, coverage=0.9, hot_access=0.1,
          hot_fraction=0.05, write=0.4, streaming=True),
    _spec("ua.D", "NAS", "medium", 7.8, 3.1, coverage=0.75, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("xz", "SPEC", "medium", 5.6, 0.7, coverage=0.55, hot_access=0.8,
          hot_fraction=0.1, write=0.35),
    _spec("parest", "SPEC", "medium", 4.3, 0.2, coverage=0.7, hot_access=0.85,
          hot_fraction=0.15, write=0.3),
    _spec("cactus", "SPEC", "medium", 3.4, 0.8, coverage=0.85, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("ft.C", "NAS", "medium", 3.1, 0.9, coverage=0.8, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("cam4", "SPEC", "medium", 2.2, 0.3, coverage=0.7, hot_access=0.8,
          hot_fraction=0.12, write=0.3),
    # ------------------------------ low MPKI ------------------------------
    _spec("wrf", "SPEC", "low", 1.4, 0.4, coverage=0.8, hot_access=0.8,
          hot_fraction=0.12, write=0.3),
    _spec("xalanc", "SPEC", "low", 1.1, 0.1, coverage=0.2, hot_access=0.8,
          hot_fraction=0.1, write=0.25),
    _spec("imagick", "SPEC", "low", 1.1, 0.4, coverage=0.85, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("x264", "SPEC", "low", 0.9, 0.3, coverage=0.8, hot_access=0.8,
          hot_fraction=0.12, write=0.35),
    _spec("perlbench", "SPEC", "low", 0.7, 0.2, coverage=0.45, hot_access=0.85,
          hot_fraction=0.1, write=0.3),
    _spec("blender", "SPEC", "low", 0.7, 0.2, coverage=0.6, hot_access=0.8,
          hot_fraction=0.12, write=0.3),
    _spec("deepsjeng", "SPEC", "low", 0.3, 3.4, coverage=0.05, hot_access=0.25,
          hot_fraction=0.3, write=0.25),
    _spec("nab", "SPEC", "low", 0.2, 0.2, coverage=0.7, hot_access=0.8,
          hot_fraction=0.12, write=0.3),
    _spec("leela", "SPEC", "low", 0.1, 0.1, coverage=0.45, hot_access=0.85,
          hot_fraction=0.1, write=0.3),
    _spec("namd", "SPEC", "low", 0.13, 0.1, coverage=0.7, hot_access=0.8,
          hot_fraction=0.12, write=0.3),
]

_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by its Table 2 name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(_BY_NAME)}")


def workloads_by_class(mpki_class: str) -> List[WorkloadSpec]:
    """All workloads of one MPKI class ("high", "medium" or "low")."""
    if mpki_class not in MPKI_CLASSES:
        raise ValueError(f"mpki_class must be one of {MPKI_CLASSES}")
    return [w for w in WORKLOADS if w.mpki_class == mpki_class]


def all_workload_names() -> List[str]:
    return [w.name for w in WORKLOADS]


def representative_workloads(per_class: int = 4) -> List[WorkloadSpec]:
    """A reduced, class-balanced subset used by the benchmark harness.

    The paper's full sweep (30 workloads x 6+ designs x 3 ratios) is too slow
    for a pure-Python model in CI; the benches default to the first
    ``per_class`` workloads of every MPKI class (highest MPKI first, as in
    Table 2) and accept an environment override to run the full set.
    """
    out: List[WorkloadSpec] = []
    for klass in MPKI_CLASSES:
        out.extend(workloads_by_class(klass)[:per_class])
    return out
