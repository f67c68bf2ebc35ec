"""Engine throughput — refs/sec of ``simulate()`` and of every design.

Unlike the figure benches, this bench regenerates no paper result: it
tracks the *simulator's own* performance trajectory.  The definition
lives in the shared registry (:mod:`repro.report.benches`); this driver
additionally writes the raw payload to
``benchmarks/results/BENCH_engine.json`` and gates its ratios against the
checked-in baseline: engine rates over a pure-Python calibration loop,
each design's rate over the fixed-latency NULL memory system's.

Environment knobs: ``REPRO_BENCH_PERF_REFS`` (default 60000) and
``REPRO_BENCH_PERF_REPEAT`` (default 5), the baseline's own settings: the
gate refuses a run taken at other settings, because the ratios move with
the trace length and the number of rounds.
"""

import json

from repro.report import get_bench
from repro.sim import perfbench

from conftest import RESULTS_DIR, emit, run_once

BENCH = get_bench("perf")


def test_engine_fast_path_speedup(benchmark, report_ctx):
    result = run_once(benchmark, lambda: BENCH.run(report_ctx))
    emit(BENCH.slug, result.render_text())
    RESULTS_DIR.mkdir(exist_ok=True)
    perfbench.write_report(result.raw,
                           str(RESULTS_DIR / "BENCH_engine.json"))

    # The spec's check holds on any host (no design outruns NULL, the
    # generator outruns the simulation); the ratios are gated against the
    # baseline.  Below ~20k refs the fixed setup stops amortising and both
    # only record the trajectory.
    BENCH.check(result)
    if result.raw["refs"] >= 20_000:
        baseline_path = RESULTS_DIR / "BENCH_engine_baseline.json"
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            failures = perfbench.compare_to_baseline(result.raw, baseline)
            assert not failures, failures
