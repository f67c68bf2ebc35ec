"""Shared execution context the bench runners draw from.

Figures 13 and 15-18 (and the 1 GB column of Figure 12) all read the same
(evaluated designs x workload subset) sweep; :class:`ReportContext` computes
it lazily and exactly once per context, mirroring the session-scoped
``main_sweep`` fixture of the pytest harness.  Thanks to the persistent
result store the sweep is also shared *across* contexts — a second report
run simulates nothing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..baselines import EVALUATED_DESIGNS
from ..sim.runner import ExperimentRunner, SweepResult
from ..workloads.catalog import WorkloadSpec


class ReportContext:
    """Runner + workload subset + lazily shared main sweep."""

    def __init__(self, runner: ExperimentRunner,
                 workloads: Sequence[WorkloadSpec], *,
                 log: Optional[Callable[[str], None]] = None) -> None:
        self.runner = runner
        self.workloads = list(workloads)
        self._log = log
        self._main_sweep: Optional[SweepResult] = None

    @property
    def workload_order(self) -> List[str]:
        return [spec.name for spec in self.workloads]

    def log(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    @property
    def main_sweep(self) -> SweepResult:
        """The 1 GB-NM (1:16) sweep of all evaluated designs, computed once."""
        if self._main_sweep is None:
            self._main_sweep = self.runner.sweep_designs_by_name(
                list(EVALUATED_DESIGNS), self.workloads, nm_gb=1)
            report = self.runner.last_report
            if report is not None:
                self.log(f"main sweep: {report.total} jobs, "
                         f"{report.simulated} simulated, {report.cached} "
                         f"from store (workers={report.workers})")
        return self._main_sweep
