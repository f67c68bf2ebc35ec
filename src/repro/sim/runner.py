"""Experiment runner: sweeps of designs x workloads x configurations.

The benchmark harness (one bench per paper table/figure), the examples and
the ``python -m repro sweep`` CLI all drive their sweeps through
:class:`ExperimentRunner`.  Since the parallel-sweep refactor the runner is
a thin orchestration layer: it decomposes a sweep into independent
:class:`~repro.sim.sweep.SweepJob` cells (plus the no-NM baseline per
workload, used for every normalisation), hands them to
:func:`~repro.sim.sweep.run_jobs` — which fans out over a process pool when
``workers > 1`` and serves already-simulated cells from the persistent
:class:`~repro.sim.store.ResultStore` — and merges the per-job
:class:`RunResult`s back into a :class:`SweepResult`.

Every job builds a *fresh* memory system from its configuration, so state
never leaks between runs and a ``workers=N`` sweep is bit-identical to the
``workers=1`` serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Union)

from ..baselines import DESIGN_FACTORIES
from ..params import SystemConfig, make_config
from ..workloads.catalog import WorkloadSpec, get_workload
from ..workloads.tracefile import (TraceFileWorkload, is_trace_token,
                                   workload_from_token)
from . import metrics
from .result import RunResult
from .store import ResultStore, open_store
from .sweep import (DesignRef, JobFailure, SweepExecutionError, SweepJob,
                    SweepReport, coerce_design, run_jobs)

if TYPE_CHECKING:
    from ..baselines.base import MemorySystem

DesignSpec = Union[str, DesignRef, Callable[[SystemConfig], "MemorySystem"]]
#: Workloads: a catalog name, a ``trace:PATH`` token, a synthetic spec, or
#: a trace-file workload handle.
Workload = Union[str, WorkloadSpec, TraceFileWorkload]

#: Registry label of the no-NM baseline every sweep normalises against.
BASELINE_DESIGN = "BASELINE"


@dataclass
class SweepResult:
    """All runs of one sweep, indexed by (design, workload).

    In non-strict mode, cells whose jobs exhausted their attempts are
    simply *absent* from ``runs``/``baselines`` and recorded in
    ``failures`` — consumers degrade to the cells that exist.
    """

    config: SystemConfig
    runs: Dict[tuple, RunResult] = field(default_factory=dict)
    baselines: Dict[str, RunResult] = field(default_factory=dict)
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    def run_for(self, design: str, workload: str) -> RunResult:
        return self.runs[(design, workload)]

    def design_labels(self) -> List[str]:
        seen: Dict[str, None] = {}
        for design, _ in self.runs:
            seen.setdefault(design)
        return list(seen)

    def workload_names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for _, workload in self.runs:
            seen.setdefault(workload)
        return list(seen)

    def speedups(self, design: str) -> Dict[str, float]:
        """Per-workload speedup over the no-NM baseline for one design."""
        out = {}
        for (d, workload), result in self.runs.items():
            if d == design and workload in self.baselines:
                out[workload] = metrics.speedup(result, self.baselines[workload])
        return out

    def class_speedups(self, design: str) -> Dict[str, float]:
        return metrics.group_by_class(self.speedups(design))

    def per_workload_metric(self, design: str,
                            fn: Callable[[RunResult, RunResult], float]) -> Dict[str, float]:
        """Apply ``fn(result, baseline_result)`` per workload for one design."""
        out = {}
        for (d, workload), result in self.runs.items():
            if d == design and workload in self.baselines:
                out[workload] = fn(result, self.baselines[workload])
        return out

    def as_dict(self) -> dict:
        """JSON-serialisable rendering (used by the sweep CLI ``--out``)."""
        return {
            "config": self.config.describe(),
            # ``label`` is the caller-provided sweep label (the key of the
            # "speedups" section); ``design`` is the system's own name and
            # may repeat across labels (e.g. DFC at several line sizes).
            "runs": [dict(result.as_dict(), label=label)
                     for (label, _), result in self.runs.items()],
            "baselines": {name: result.as_dict()
                          for name, result in self.baselines.items()},
            "speedups": {design: self.speedups(design)
                         for design in self.design_labels()},
            "failures": [failure.as_dict() for failure in self.failures],
        }


class ExperimentRunner:
    """Runs designs over workloads at a fixed trace length and scale.

    ``workers`` selects the execution mode: 1 keeps the classic serial
    in-process path, ``N > 1`` fans independent jobs out over a process
    pool.  ``store`` (a :class:`ResultStore`, a directory path or a
    ``sqlite:PATH`` URI, or ``None`` to disable caching) persists every
    simulated cell so repeated or interrupted sweeps only simulate what is
    missing; the dedup pass at dispatch time probes the whole batch in
    batched backend round-trips, not one read per cell.
    """

    def __init__(self, *, num_references: int = 40_000, scale: int = 256,
                 fm_gb: int = 16, seed: int = 1,
                 num_cores: Optional[int] = None, workers: int = 1,
                 store: Union[ResultStore, str, None] = None,
                 strict: bool = False, max_attempts: int = 3,
                 timeout: Optional[float] = None,
                 backoff: float = 0.5) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.num_references = num_references
        self.scale = scale
        self.fm_gb = fm_gb
        self.seed = seed
        self.num_cores = num_cores
        self.workers = workers
        self.store = open_store(store)
        #: Fault-tolerance knobs, forwarded to the sweep supervisor
        #: (:func:`~repro.sim.sweep.run_jobs`).  ``strict=True`` raises
        #: on the first exhausted job instead of degrading to partial
        #: results.
        self.strict = strict
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.backoff = backoff
        #: Cache accounting of the most recent engine dispatch.
        self.last_report: Optional[SweepReport] = None
        #: Cumulative accounting over the runner's lifetime — lets a
        #: multi-sweep consumer (the report pipeline) assert that a whole
        #: run was served from the store, not just its last dispatch.
        self.jobs_total = 0
        self.jobs_simulated = 0
        self.jobs_cached = 0
        self.jobs_failed = 0

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------
    def config_for(self, nm_gb: int, **overrides) -> SystemConfig:
        return make_config(nm_gb=nm_gb, fm_gb=self.fm_gb, scale=self.scale,
                           **overrides)

    def _resolve_workload(
            self, workload: "Workload") -> Union[WorkloadSpec,
                                                 TraceFileWorkload]:
        if isinstance(workload, (WorkloadSpec, TraceFileWorkload)):
            return workload
        if is_trace_token(workload):
            return workload_from_token(workload)
        return get_workload(workload)

    def _job(self, design: DesignRef,
             spec: Union[WorkloadSpec, TraceFileWorkload],
             config: SystemConfig) -> SweepJob:
        return SweepJob(design=design, workload=spec, config=config,
                        num_references=self.num_references, seed=self.seed,
                        num_cores=self.num_cores)

    def _dispatch(self, jobs: Sequence[SweepJob]) -> List[Optional[RunResult]]:
        report = run_jobs(jobs, workers=self.workers, store=self.store,
                          strict=self.strict, max_attempts=self.max_attempts,
                          timeout=self.timeout, backoff=self.backoff)
        self.last_report = report
        self.jobs_total += report.total
        self.jobs_simulated += report.simulated
        self.jobs_cached += report.cached
        self.jobs_failed += report.failed
        return report.results

    # ------------------------------------------------------------------
    # single runs
    # ------------------------------------------------------------------
    def run_one(self, design: DesignSpec, workload: Workload,
                config: SystemConfig) -> RunResult:
        """Simulate one design on one workload with a fresh memory system.

        A single cell has no partial result to degrade to, so an exhausted
        job raises :class:`SweepExecutionError` even in non-strict mode.
        """
        spec = self._resolve_workload(workload)
        job = self._job(coerce_design(design), spec, config)
        result = self._dispatch([job])[0]
        if result is None:
            raise SweepExecutionError(self.last_report.failures)
        return result

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def sweep(self, designs: Sequence[DesignSpec],
              workloads: Sequence[Workload],
              nm_gb: int = 1, config: Optional[SystemConfig] = None,
              design_names: Optional[Sequence[str]] = None,
              baselines: bool = True) -> SweepResult:
        """Run every design on every workload (plus, by default, the no-NM
        baseline per workload), decomposed into independent jobs.

        Results are indexed by the caller-provided label so sweeps over
        factories that share a design name (e.g. DFC at several line sizes)
        stay distinguishable.  Set ``baselines=False`` for sweeps that do
        not normalise (e.g. the Figure 1 wasted-data study).
        """
        config = config or self.config_for(nm_gb)
        names = list(design_names) if design_names else [
            d if isinstance(d, str)
            else d.label if isinstance(d, DesignRef)
            else getattr(d, "__name__", f"design{i}")
            for i, d in enumerate(designs)
        ]
        refs = [coerce_design(design, name)
                for design, name in zip(designs, names)]
        specs = [self._resolve_workload(w) for w in workloads]

        jobs: List[SweepJob] = []
        # Index entries carry the caller label, or None for the no-NM
        # baseline runs (out of band, so a design may be labelled anything —
        # even "baseline" — without being misrouted).
        index: List[tuple] = []
        if baselines:
            baseline_ref = coerce_design(BASELINE_DESIGN)
            for spec in specs:
                jobs.append(self._job(baseline_ref, spec, config))
                index.append((None, spec.name))
        for spec in specs:
            for ref, name in zip(refs, names):
                jobs.append(self._job(ref, spec, config))
                index.append((name, spec.name))

        results = self._dispatch(jobs)
        sweep = SweepResult(config=config)
        for (name, workload_name), result in zip(index, results):
            if result is None:
                continue                 # exhausted job: cell stays absent
            if name is None:
                sweep.baselines[workload_name] = result
            else:
                sweep.runs[(name, workload_name)] = result
        sweep.failures = list(self.last_report.failures)
        return sweep

    def sweep_designs_by_name(self, design_names: Sequence[str],
                              workloads: Sequence[Workload],
                              nm_gb: int = 1) -> SweepResult:
        """Convenience wrapper: designs given by their paper labels."""
        unknown = [d for d in design_names if d.upper() not in DESIGN_FACTORIES]
        if unknown:
            raise KeyError(f"unknown designs: {unknown}")
        return self.sweep([d.upper() for d in design_names], workloads,
                          nm_gb=nm_gb,
                          design_names=[d.upper() for d in design_names])
