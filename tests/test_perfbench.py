"""Tests for the engine performance benchmark and its CLI/regression gate."""

import json

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.cli import main
from repro.params import make_config
from repro.sim import perfbench, simulator
from repro.sim.simulator import simulate
from repro.workloads import synthetic
from repro.workloads.catalog import get_workload


def test_null_memory_system_isolates_the_engine():
    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    result = simulate(perfbench.NullMemorySystem(config, latency_ns=50.0),
                      get_workload("mcf"), num_references=600, seed=1)
    assert result.references == 600 - int(600 * 0.25)
    assert result.nm_service_ratio == 1.0
    assert result.energy_pj == 0.0
    assert result.cycles > 0


def test_run_benchmark_payload_shape():
    payload = perfbench.run_benchmark(refs=300, repeat=1, designs=["BASELINE"],
                                      small_refs=100)
    assert payload["schema"] == perfbench.BENCH_SCHEMA == 3
    assert payload["calibration"]["ops_per_sec"] > 0
    fast = payload["fast_path"]
    assert fast["refs_per_sec"] == payload["null"]["refs_per_sec"] > 0
    assert fast["ratio"] > 0
    assert payload["fast_path_small"]["ratio"] > 0
    assert payload["small_refs"] == 100
    assert payload["generator"]["ratio"] > 0
    assert set(payload["designs"]) == {"BASELINE"}
    assert payload["designs"]["BASELINE"]["refs_per_sec"] > 0
    assert payload["designs"]["BASELINE"]["ratio"] > 0
    assert "python" in payload["environment"]
    rendered = perfbench.render_report(payload)
    assert "fast path" in rendered and "BASELINE" in rendered
    assert "of NULL" in rendered and "per calibration op" in rendered


def test_run_benchmark_section_switches():
    engine_only = perfbench.run_benchmark(refs=200, repeat=1, designs=[])
    assert "designs" not in engine_only
    assert "fast_path" in engine_only
    designs_only = perfbench.run_benchmark(refs=200, repeat=1,
                                           designs=["baseline"], engine=False)
    assert "fast_path" not in designs_only
    assert "fast_path_small" not in designs_only
    assert "calibration" not in designs_only
    assert set(designs_only["designs"]) == {"BASELINE"}
    assert designs_only["null"]["refs_per_sec"] > 0
    # A small-refs count at or above refs would duplicate the main
    # measurement, so it is skipped.
    no_small = perfbench.run_benchmark(refs=200, repeat=1, designs=[],
                                       small_refs=200)
    assert "fast_path_small" not in no_small


def schema3(**sections):
    return {"schema": perfbench.BENCH_SCHEMA, **sections}


def test_compare_to_baseline_gates_on_speedup_ratio():
    current = schema3(fast_path={"ratio": 0.40}, generator={"ratio": 2.0})
    ok_base = schema3(fast_path={"ratio": 0.50}, generator={"ratio": 2.5})
    assert perfbench.compare_to_baseline(current, ok_base,
                                         max_regression=0.30) == []
    bad_base = schema3(fast_path={"ratio": 0.60}, generator={"ratio": 2.5})
    failures = perfbench.compare_to_baseline(current, bad_base,
                                             max_regression=0.30)
    assert len(failures) == 1 and "fast_path" in failures[0]
    # A section the payload did not measure is not gated ...
    assert perfbench.compare_to_baseline(schema3(), ok_base) == []
    # ... but one the baseline lacks fails instead of passing vacuously.
    failures = perfbench.compare_to_baseline(
        schema3(fast_path_small={"ratio": 0.3}), ok_base)
    assert failures == ["fast_path_small is missing from the baseline"]


def test_compare_to_baseline_gates_per_design():
    current = schema3(designs={"MPOD": {"refs_per_sec": 1.0, "ratio": 0.2},
                               "LGM": {"refs_per_sec": 1.0, "ratio": 0.3}})
    baseline = schema3(designs={"MPOD": {"ratio": 0.3},
                                "LGM": {"ratio": 0.3}})
    failures = perfbench.compare_to_baseline(current, baseline,
                                             max_regression=0.30)
    assert len(failures) == 1 and "MPOD" in failures[0]
    # fast_path_small participates in the gate like the other sections.
    failures = perfbench.compare_to_baseline(
        schema3(fast_path_small={"ratio": 0.1}),
        schema3(fast_path_small={"ratio": 0.5}))
    assert len(failures) == 1 and "fast_path_small" in failures[0]
    failures = perfbench.compare_to_baseline(
        schema3(designs={"DFC": {"ratio": 0.3}}), baseline)
    assert failures == ["design DFC is missing from the baseline"]


def test_compare_to_baseline_rejects_schema_mismatch():
    """A schema-2 baseline gated seed-engine speedups; against it every
    comparison would be meaningless, so the gate fails and says why."""
    current = schema3(designs={"MPOD": {"ratio": 0.3}})
    old_baseline = {"schema": 2, "designs": {"MPOD": {"speedup": 3.0}}}
    failures = perfbench.compare_to_baseline(current, old_baseline)
    assert len(failures) == 1
    assert "schema 2" in failures[0] and "schema 3" in failures[0]
    assert perfbench.compare_to_baseline(
        current, {"designs": {"MPOD": {"ratio": 0.3}}}) != []


def test_bench_cli_writes_report_and_gates(tmp_path, capsys):
    out = tmp_path / "BENCH_engine.json"
    assert main(["bench", "--refs", "300", "--repeat", "1", "--no-designs",
                 "--small-refs", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "designs" not in payload
    assert payload["fast_path"]["refs_per_sec"] > 0

    # A baseline with absurd ratios must trip the regression gate ...
    impossible = dict(payload, fast_path=dict(payload["fast_path"],
                                              ratio=1e9))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(impossible))
    assert main(["bench", "--refs", "300", "--repeat", "1", "--no-designs",
                 "--small-refs", "0", "--baseline", str(baseline)]) == 1
    assert "PERF REGRESSION" in capsys.readouterr().err

    # ... while gating against this run's own numbers passes.  The two runs
    # are independent 300-ref measurements, so allow for timer noise that a
    # real (repeat>=3, refs>=60k) gate would average away.
    baseline.write_text(json.dumps(payload))
    assert main(["bench", "--refs", "300", "--repeat", "1", "--no-designs",
                 "--small-refs", "0", "--max-regression", "0.75",
                 "--baseline", str(baseline)]) == 0


def test_bench_cli_update_baseline(tmp_path):
    baseline = tmp_path / "baseline.json"
    assert main(["bench", "--refs", "200", "--repeat", "1",
                 "--designs", "BASELINE", "--no-engine",
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    payload = json.loads(baseline.read_text())
    assert set(payload["designs"]) == {"BASELINE"}
    assert payload["designs"]["BASELINE"]["ratio"] > 0
    # --update-baseline without --baseline is a usage error.
    with pytest.raises(SystemExit):
        main(["bench", "--refs", "200", "--repeat", "1", "--no-designs",
              "--update-baseline"])


def spin(n: int = 200) -> int:
    """A few microseconds of pure-Python work."""
    total = 0
    for k in range(n):
        total += k
    return total


@pytest.mark.slow
def test_gate_trips_on_deliberate_slowdowns(monkeypatch):
    """Each gated ratio falls below the 30% floor when the piece it
    measures gets slower, against a baseline taken in the same process:
    per-reference work around the step in the driver loop trips
    ``fast_path``, work inside one design's step trips that design, and a
    slower trace generator trips ``generator``.  Each slowdown at least
    triples the time of what it slows, well clear of host noise."""
    kwargs = dict(refs=20_000, designs=["TAGLESS"], small_refs=0)
    before = perfbench.run_benchmark(**kwargs)

    def tripped(section):
        failures = perfbench.compare_to_baseline(
            perfbench.run_benchmark(**kwargs), before)
        monkeypatch.undo()
        return [f for f in failures if f.startswith(section + " ")]

    drive = simulator._drive

    def slow_drive(stream, step, *args):
        def slowed(i, is_write, now_ns):
            spin()
            return step(i, is_write, now_ns)
        drive(stream, slowed, *args)

    monkeypatch.setattr(simulator, "_drive", slow_drive)
    assert tripped("fast_path")

    cls = type(DESIGN_FACTORIES["TAGLESS"](make_config()))
    make_step = cls._step

    def slow_step(self, *columns):
        step = make_step(self, *columns)

        def slowed(i, is_write, now_ns):
            spin()
            return step(i, is_write, now_ns)
        return slowed

    monkeypatch.setattr(cls, "_step", slow_step)
    assert tripped("design TAGLESS")

    generate = synthetic.generate_trace

    def slow_generate(spec, num_references, **kw):
        for _ in range(num_references):
            spin(10)
        return generate(spec, num_references, **kw)

    monkeypatch.setattr(synthetic, "generate_trace", slow_generate)
    assert tripped("generator")
