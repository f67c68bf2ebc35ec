"""Report pipeline: run registered benches, write artifacts, build the gallery.

``python -m repro report`` drives :func:`generate_report`, which

1. builds one :class:`~repro.sim.runner.ExperimentRunner` (parallel workers
   plus the persistent result store, exactly like the pytest harness — the
   same ``REPRO_BENCH_*`` environment knobs apply);
2. runs the requested benches through their registered specs, sharing the
   expensive main sweep via a single :class:`ReportContext`;
3. writes, per bench, the JSON artifact, one SVG per charted table and a
   markdown page;
4. rebuilds ``EXPERIMENTS.md`` from every artifact present on disk, so a
   partial ``--bench`` run refreshes its benches without dropping the rest
   of the gallery.

Thanks to the store, a second full run simulates nothing and completes in
seconds; editing simulator code auto-invalidates affected cells (the store
key folds in a source fingerprint).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..sim.runner import ExperimentRunner
from ..sim.store import ResultStore
from ..workloads import representative_workloads
from . import artifacts, render
from .context import (DEFAULT_PERF_REFS, DEFAULT_PERF_REPEAT, ReportContext)
from .registry import BenchSpec, all_benches, get_bench

#: Default output locations, relative to the working directory.
DEFAULT_OUT_DIR = "artifacts"
DEFAULT_GALLERY = "EXPERIMENTS.md"
DEFAULT_STORE = os.path.join("benchmarks", "results", "store")


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


@dataclass
class ReportSettings:
    """Sweep scale and execution knobs shared with the pytest harness."""

    refs: int = 16_000
    per_class: int = 2
    scale: int = 256
    seed: int = 1
    workers: int = 1
    #: Store directory or ``sqlite:PATH`` URI; ``None`` disables caching.
    store: Optional[str] = DEFAULT_STORE
    perf_refs: int = DEFAULT_PERF_REFS
    perf_repeat: int = DEFAULT_PERF_REPEAT
    #: Fail fast: re-raise the first bench/job failure instead of
    #: degrading to partial artifacts (``REPRO_STRICT=1`` / ``--strict``).
    strict: bool = False

    @classmethod
    def from_env(cls, **overrides: Any) -> "ReportSettings":
        """Environment defaults (``REPRO_BENCH_*`` / ``REPRO_FULL``),
        overridable per field with keyword arguments (``None`` ignored)."""
        full = os.environ.get("REPRO_FULL") == "1"
        settings = cls(
            refs=_env_int("REPRO_BENCH_REFS", 48_000 if full else 16_000),
            per_class=_env_int("REPRO_BENCH_WORKLOADS_PER_CLASS",
                               10 if full else 2),
            scale=_env_int("REPRO_BENCH_SCALE", 256),
            seed=_env_int("REPRO_BENCH_SEED", 1),
            workers=workers_from_env(),
            store=store_path_from_env(),
            perf_refs=_env_int("REPRO_BENCH_PERF_REFS", DEFAULT_PERF_REFS),
            perf_repeat=_env_int("REPRO_BENCH_PERF_REPEAT",
                                 DEFAULT_PERF_REPEAT),
            strict=os.environ.get("REPRO_STRICT") == "1",
        )
        for key, value in overrides.items():
            if value is not None:
                setattr(settings, key, value)
        return settings

    def describe(self) -> Dict[str, Any]:
        """The settings block recorded in every artifact: what decides the
        results, so not ``workers``, which never changes one."""
        return {
            "refs": self.refs,
            "workloads_per_class": self.per_class,
            "scale": self.scale,
            "seed": self.seed,
            "store": self.store or "(disabled)",
        }

    def make_runner(self) -> ExperimentRunner:
        store = ResultStore(self.store) if self.store else None
        return ExperimentRunner(num_references=self.refs, scale=self.scale,
                                seed=self.seed, workers=self.workers,
                                store=store, strict=self.strict)

    def make_context(self, log: Optional[Callable[[str], None]] = None
                     ) -> ReportContext:
        return ReportContext(self.make_runner(),
                             representative_workloads(per_class=self.per_class),
                             perf_refs=self.perf_refs,
                             perf_repeat=self.perf_repeat, log=log)


def workers_from_env() -> int:
    """``REPRO_BENCH_WORKERS``: worker count, ``auto`` = one per CPU, max 8."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "auto")
    if raw == "auto":
        return max(1, min(8, os.cpu_count() or 1))
    return max(1, int(raw))


def store_path_from_env() -> Optional[str]:
    """``REPRO_BENCH_STORE``: store directory or ``sqlite:PATH`` URI;
    ``0``/``off`` disables."""
    raw = os.environ.get("REPRO_BENCH_STORE", DEFAULT_STORE)
    if raw in ("0", "off", ""):
        return None
    return raw


@dataclass
class BenchOutcome:
    """Everything one bench produced during a pipeline run."""

    spec: BenchSpec
    status: str
    artifact: Path
    page: Path
    svgs: List[Path] = field(default_factory=list)
    flagged: int = 0
    check_error: Optional[str] = None
    #: ``"Type: message"`` when the bench run itself raised (non-strict
    #: mode writes a failure artifact instead of aborting the report).
    error: Optional[str] = None


def run_bench(spec: BenchSpec, ctx: ReportContext,
              settings: ReportSettings,
              out_dir: Union[str, Path]) -> BenchOutcome:
    """Run one bench and write its JSON artifact, SVGs and markdown page."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = spec.run(ctx)
    deviations = spec.evaluate(result)
    check_error: Optional[str] = None
    if spec.check is not None:
        try:
            spec.check(result)
        except AssertionError as exc:
            check_error = str(exc) or "assertion failed"

    svg_files: Dict[str, str] = {}
    svgs: List[Path] = []
    for table in result.tables:
        svg = render.chart_for_table(table)
        if svg is None:
            continue
        svg_path = out / f"{spec.name}.{table.slug}.svg"
        svg_path.write_text(svg + "\n")
        svg_files[table.slug] = svg_path.name
        svgs.append(svg_path)

    settings_block = settings.describe()
    artifact = artifacts.write_artifact(spec, result, deviations,
                                        settings_block, out,
                                        check_error=check_error)
    page = out / f"{spec.name}.md"
    page.write_text(render.render_bench_page(spec, result, deviations,
                                             settings_block, svg_files,
                                             check_error=check_error))
    return BenchOutcome(
        spec=spec, status=artifacts.status_of(deviations, check_error),
        artifact=artifact, page=page, svgs=svgs,
        flagged=sum(1 for dev in deviations if dev["status"] == "flag"),
        check_error=check_error)


def run_bench_guarded(spec: BenchSpec, ctx: ReportContext,
                      settings: ReportSettings,
                      out_dir: Union[str, Path]) -> BenchOutcome:
    """Run one bench, degrading a raised exception to a failure artifact.

    In ``strict`` mode the exception propagates (fail-fast CI behaviour);
    otherwise the bench's gallery slot records the failure — type, message
    and traceback — and the remaining benches still run.
    """
    import traceback as traceback_module

    try:
        return run_bench(spec, ctx, settings, out_dir)
    except Exception as exc:
        if settings.strict:
            raise
        error = {"type": type(exc).__name__, "message": str(exc),
                 "traceback": traceback_module.format_exc()}
        artifact = artifacts.write_failure_artifact(
            spec, error["type"], error["message"], error["traceback"],
            settings.describe(), out_dir)
        page = Path(out_dir) / f"{spec.name}.md"
        page.write_text(render.render_failure_page(spec, error,
                                                   settings.describe()))
        return BenchOutcome(spec=spec, status=artifacts.STATUS_FAILED,
                            artifact=artifact, page=page,
                            error=f"{error['type']}: {error['message']}")


def resolve_benches(names: Optional[Sequence[str]]) -> List[BenchSpec]:
    """Bench names to specs; ``None``/empty means the full registry."""
    if not names:
        return all_benches()
    return [get_bench(name) for name in names]


def rebuild_gallery(out_dir: Union[str, Path],
                    gallery: Union[str, Path]) -> Path:
    """Regenerate the gallery from every artifact present in ``out_dir``."""
    out = Path(out_dir)
    gallery_path = Path(gallery)
    payloads = []
    for spec in all_benches():
        path = artifacts.artifact_path(out, spec)
        if path.exists():
            payloads.append(artifacts.load_artifact(path))
    gallery_path.parent.mkdir(parents=True, exist_ok=True)
    gallery_path.write_text(render.render_gallery(payloads, out,
                                                  gallery_path))
    return gallery_path


def generate_report(names: Optional[Sequence[str]] = None, *,
                    settings: Optional[ReportSettings] = None,
                    out_dir: Union[str, Path] = DEFAULT_OUT_DIR,
                    gallery: Union[str, Path] = DEFAULT_GALLERY,
                    log: Optional[Callable[[str], None]] = None
                    ) -> Dict[str, Any]:
    """Run benches, write artifacts and rebuild the gallery.

    Returns a summary dict: per-bench statuses, total flagged deviations,
    failed benches, and the gallery path.  Unless ``settings.strict`` is
    set, one bench raising does not stop the others: its slot degrades to
    a failure artifact (flagged in the gallery) and the report completes.
    """
    specs = resolve_benches(names)
    settings = settings or ReportSettings.from_env()
    ctx = settings.make_context(log=log)
    outcomes: List[BenchOutcome] = []
    for spec in specs:
        if log is not None:
            log(f"bench {spec.name}: {spec.title}")
        outcome = run_bench_guarded(spec, ctx, settings, out_dir)
        if outcome.error is not None and log is not None:
            log(f"bench {spec.name} FAILED: {outcome.error}")
        outcomes.append(outcome)
    gallery_path = rebuild_gallery(out_dir, gallery)
    return {
        "benches": {outcome.spec.name: outcome.status
                    for outcome in outcomes},
        "flagged": sum(outcome.flagged for outcome in outcomes),
        "check_failures": {outcome.spec.name: outcome.check_error
                           for outcome in outcomes if outcome.check_error},
        "failed": {outcome.spec.name: outcome.error
                   for outcome in outcomes if outcome.error},
        # Cumulative over every sweep of the run (incl. e.g. fig12's
        # 2/4 GB columns), so callers can assert full store service.
        "jobs": {"total": ctx.runner.jobs_total,
                 "simulated": ctx.runner.jobs_simulated,
                 "cached": ctx.runner.jobs_cached},
        "gallery": str(gallery_path),
        "out_dir": str(out_dir),
    }
