"""Paper-artifact report pipeline.

One command — ``python -m repro report`` — regenerates the paper's whole
evaluation (Figures 1-18, Tables 1-2, plus the engine-perf trajectory)
through the sweep engine and result store, and renders it into a browsable
gallery:

* ``artifacts/<bench>.json`` — machine-readable result + deviations;
* ``artifacts/<bench>.md`` (+ ``.svg`` charts) — one page per bench;
* ``EXPERIMENTS.md`` — the gallery, measured values side-by-side with the
  paper's published numbers, deviations beyond tolerance flagged.

The registry (:mod:`repro.report.registry`) is shared with the pytest
benches under ``benchmarks/``, so both harnesses execute identical bench
definitions.
"""

from ..common import lazy_exports

__all__ = lazy_exports(__name__, globals(), {
    ".artifacts": ("ARTIFACT_FORMAT", "STATUS_FAILED", "artifact_path",
                   "load_artifact", "result_from_artifact", "status_of",
                   "write_artifact", "write_failure_artifact"),
    ".context": ("ReportContext",),
    ".pipeline": ("DEFAULT_GALLERY", "DEFAULT_OUT_DIR", "DEFAULT_STORE",
                  "BenchOutcome", "ReportSettings", "generate_report",
                  "rebuild_gallery", "resolve_benches", "run_bench",
                  "run_bench_guarded", "store_path_from_env",
                  "workers_from_env"),
    ".registry": ("REGISTRY", "BenchResult", "BenchSpec", "Expectation",
                  "Table", "all_benches", "get_bench"),
})
