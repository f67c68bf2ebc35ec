"""Shared serializers: one schema, two frontends.

The serve layer's listing endpoints (``/v1/designs``, ``/v1/workloads``,
``/v1/benches``) and the CLI ``--json`` flags of ``python -m repro
designs`` / ``workloads`` render through these same functions, so a
design or workload is described identically whether it was asked for
over HTTP or on the command line.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..baselines import DESIGN_FACTORIES, EVALUATED_DESIGNS
from ..workloads.catalog import WORKLOADS, WorkloadSpec, workloads_by_class


def design_entry(name: str) -> Dict[str, Any]:
    """One design of the registry, as data."""
    factory = DESIGN_FACTORIES[name]
    doc = (factory.__doc__ or "").strip().splitlines()
    return {
        "name": name,
        "evaluated": name in EVALUATED_DESIGNS,
        "summary": doc[0] if doc else "",
    }


def design_entries() -> List[Dict[str, Any]]:
    """Every registered design, in registry order."""
    return [design_entry(name) for name in DESIGN_FACTORIES]


def workload_entry(spec: WorkloadSpec) -> Dict[str, Any]:
    """One Table 2 workload, as data (the sweep engine's stable
    :meth:`~repro.workloads.catalog.WorkloadSpec.as_dict` form)."""
    return spec.as_dict()


def workload_entries(mpki_class: Optional[str] = None
                     ) -> List[Dict[str, Any]]:
    """The workload catalog (optionally one MPKI class), in Table 2 order."""
    specs = workloads_by_class(mpki_class) if mpki_class else WORKLOADS
    return [workload_entry(spec) for spec in specs]


def bench_entry(spec) -> Dict[str, Any]:
    """One registered bench, as data (see ``BenchSpec.as_dict``)."""
    return spec.as_dict()


def bench_entries() -> List[Dict[str, Any]]:
    """Every registered bench, in paper order."""
    from ..report.registry import all_benches

    return [bench_entry(spec) for spec in all_benches()]
