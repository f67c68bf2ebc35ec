"""Shared configuration of the benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation on
the scaled model by executing its registered spec from the benchmark
registry (:mod:`repro.report.registry`) — the same definitions the
``python -m repro report`` pipeline runs, so pytest and the report CLI can
never drift apart.  The sweeps run through the parallel sweep engine with
a persistent result store; re-running a bench only simulates cells that
are not cached yet.  Environment knobs (shared with the report CLI):

* ``REPRO_BENCH_REFS``               references per run (default 16000)
* ``REPRO_BENCH_WORKLOADS_PER_CLASS`` workloads per MPKI class (default 2)
* ``REPRO_BENCH_SCALE``              capacity scale denominator (default 256)
* ``REPRO_BENCH_SEED``               trace seed (default 1)
* ``REPRO_BENCH_WORKERS``            worker processes ("auto" = one per CPU,
                                     capped at 8; default auto)
* ``REPRO_BENCH_STORE``              result-store directory; "0" disables
                                     (default ``benchmarks/results/store``)

The full 30-workload sweep is ``REPRO_BENCH_REFS=48000
REPRO_BENCH_WORKLOADS_PER_CLASS=10``.

The store is keyed by (design, workload spec, configuration, refs, seed)
plus a fingerprint of the ``repro`` package source, so editing simulation
code automatically invalidates cached cells; stale files only occupy disk
until ``python -m repro store --store benchmarks/results/store --clear``.

Each bench prints the regenerated rows/series and also writes them to
``benchmarks/results/<slug>.txt``; the full gallery with published-value
comparisons is regenerated by ``python -m repro report`` (see
``EXPERIMENTS.md``).
"""

from pathlib import Path

import pytest

from repro.report import ReportContext, ReportSettings

SETTINGS = ReportSettings.from_env()

RESULTS_DIR = Path(__file__).parent / "results"


def emit(experiment: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def report_ctx() -> ReportContext:
    """The shared execution context (runner + workloads + lazy main sweep).

    Figures 13 and 15-18 all read the context's main sweep, so the
    expensive simulations run once per benchmark session (and, thanks to
    the result store, once per store lifetime).
    """
    return SETTINGS.make_context(log=lambda message: print(f"\n{message}"))
