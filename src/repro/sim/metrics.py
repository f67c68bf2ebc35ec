"""Metrics used by the evaluation figures.

Every figure of the paper reports either geometric-mean speedups over the
no-NM baseline (Figures 2, 11, 12, 13, 14), NM service ratios (Figure 15),
or traffic/energy normalised to the baseline (Figures 16, 17, 18), grouped
by MPKI class.  The helpers here compute exactly those aggregations from
:class:`~repro.sim.result.RunResult` objects.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

from ..workloads.catalog import MPKI_CLASSES, get_workload
from .result import RunResult


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; zero/negative entries are clamped to a small epsilon."""
    values = list(values)
    if not values:
        return 0.0
    logs = [math.log(max(v, 1e-12)) for v in values]
    return math.exp(sum(logs) / len(logs))


def speedup(result: RunResult, baseline: RunResult) -> float:
    """Speedup of ``result`` over the no-NM ``baseline`` for the same workload."""
    if result.workload != baseline.workload:
        raise ValueError(
            f"speedup compares the same workload, got {result.workload!r} "
            f"vs {baseline.workload!r}")
    return result.speedup_over(baseline)


def normalised_traffic(result: RunResult, baseline: RunResult,
                       which: str = "fm") -> float:
    """FM or NM traffic normalised to the baseline's total memory traffic.

    The baseline has no near memory, so its total traffic is the natural
    normalisation for both Figure 16 (FM traffic) and Figure 17 (NM traffic).
    """
    base = baseline.fm_traffic_bytes + baseline.nm_traffic_bytes
    if base == 0:
        return 0.0
    numerator = (result.fm_traffic_bytes if which == "fm"
                 else result.nm_traffic_bytes)
    return numerator / base


def normalised_energy(result: RunResult, baseline: RunResult) -> float:
    """Dynamic memory energy normalised to the baseline (Figure 18)."""
    if baseline.energy_pj == 0:
        return 0.0
    return result.energy_pj / baseline.energy_pj


def mpki_class_of(workload_name: str) -> str:
    """MPKI class of a Table 2 workload."""
    return get_workload(workload_name).mpki_class


def group_by_class(per_workload: Mapping[str, float]) -> Dict[str, float]:
    """Geometric mean of a per-workload metric per MPKI class plus "all".

    ``per_workload`` maps workload names to a positive metric (speedup,
    normalised traffic, service ratio, ...).  Classes with no entries are
    omitted.  Names outside the Table 2 catalog (trace-file workloads)
    have no MPKI class and contribute to "all" only.
    """
    grouped: Dict[str, List[float]] = {klass: [] for klass in MPKI_CLASSES}
    for name, value in per_workload.items():
        try:
            klass = mpki_class_of(name)
        except KeyError:
            continue
        grouped[klass].append(value)
    out: Dict[str, float] = {}
    for klass in MPKI_CLASSES:
        if grouped[klass]:
            out[klass] = geometric_mean(grouped[klass])
    if per_workload:
        out["all"] = geometric_mean(per_workload.values())
    return out


def min_max_geomean(values: Sequence[float]) -> Dict[str, float]:
    """Min / Max / Geomean triple used by the Figure 2 motivation study."""
    if not values:
        return {"min": 0.0, "max": 0.0, "geomean": 0.0}
    return {
        "min": min(values),
        "max": max(values),
        "geomean": geometric_mean(values),
    }
