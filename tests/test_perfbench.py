"""Tests for the engine performance benchmark and its CLI/regression gate."""

import gc
import json
from pathlib import Path

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.cli import main
from repro.core.remap import RemapTable
from repro.params import make_config
from repro.sim import perfbench, simulator
from repro.sim.simulator import simulate
from repro.workloads import synthetic
from repro.workloads.catalog import get_workload

CHECKED_IN_BASELINE = (Path(__file__).resolve().parents[1] / "benchmarks"
                       / "results" / "BENCH_engine_baseline.json")


@pytest.fixture(autouse=True)
def frozen_heap():
    """Keep what the test process has loaded out of the collector's
    reach: the bench runs ``gc.collect()`` before every timed piece,
    and in a full test session each of those would scan the whole
    session heap.  The timed calls themselves run with the collector
    off either way."""
    gc.freeze()
    yield
    gc.unfreeze()


def test_null_memory_system_isolates_the_engine():
    config = make_config(nm_gb=1, fm_gb=16, scale=256)
    result = simulate(perfbench.NullMemorySystem(config, latency_ns=50.0),
                      get_workload("mcf"), num_references=600, seed=1)
    assert result.references == 600 - int(600 * 0.25)
    # No memory at all: no request is served from near memory, and no
    # energy is spent.
    assert result.nm_service_ratio == 0.0
    assert result.stats["requests.from_nm"] == 0
    assert result.energy_pj == 0.0
    assert result.cycles > 0


def narrow_designs(monkeypatch, *labels):
    """Time only ``labels`` of the design table."""
    monkeypatch.setattr(perfbench, "DESIGN_FACTORIES",
                        {label: DESIGN_FACTORIES[label] for label in labels})


def test_run_benchmark_payload_shape(monkeypatch):
    narrow_designs(monkeypatch, "BASELINE")
    monkeypatch.setattr(perfbench, "SMALL_REFS", 100)
    payload = perfbench.run_benchmark(refs=300, repeat=1)
    assert payload["schema"] == perfbench.BENCH_SCHEMA == 4
    assert payload["workload"] == perfbench.WORKLOAD == "mcf"
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
    assert set(payload["designs_small"]) == {"BASELINE"}
    assert payload["designs_small"]["BASELINE"]["ratio"] > 0
    assert payload["null_small"]["refs_per_sec"] > 0
    assert "python" in payload["environment"]
    rendered = perfbench.render_report(payload)
    assert "fast path" in rendered and "BASELINE" in rendered
    assert "of NULL" in rendered and "per calibration op" in rendered
    assert "of NULL)  [100 refs]" in rendered
    # At or below the small reference count the small-trace sections
    # would repeat the main measurement, so they are left out.
    monkeypatch.setattr(perfbench, "SMALL_REFS", 300)
    payload = perfbench.run_benchmark(refs=300, repeat=1)
    assert set(payload["designs"]) == {"BASELINE"}
    assert "fast_path_small" not in payload and "small_refs" not in payload
    assert "designs_small" not in payload and "null_small" not in payload


@pytest.mark.parametrize("refs, repeat", [(0, 1), (-5, 1), (300, 0),
                                          (300, -1)])
def test_run_benchmark_refuses_bad_counts(refs, repeat):
    """A count below 1 is refused before anything is timed: refs 0 once
    divided by zero, and refs -5 or repeat 0 measured anyway and recorded
    the bad value in the payload."""
    with pytest.raises(ValueError, match="refs >= 1 and repeat >= 1"):
        perfbench.run_benchmark(refs=refs, repeat=repeat)


def test_every_timed_run_generates_its_trace(monkeypatch):
    """Each timed ``simulate()`` starts from an empty reuse entry, so the
    gate keeps timing generation and flattening: without that, repeats
    and the designs timed after the null system would skip both."""
    generate = simulator.generate_multiprogrammed
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return generate(*args, **kwargs)

    monkeypatch.setattr(simulator, "generate_multiprogrammed", counted)
    narrow_designs(monkeypatch, "BASELINE", "CHA")
    perfbench.run_benchmark(refs=300, repeat=3)
    # Per round: the null system of fast_path, then each design after its
    # own null run (300 refs is below SMALL_REFS: no small-trace runs).
    assert len(calls) == 3 * (1 + 2 * 2)


def schema(**sections):
    return {"schema": perfbench.BENCH_SCHEMA, **sections}


def test_compare_to_baseline_gates_on_speedup_ratio():
    current = schema(fast_path={"ratio": 0.40}, generator={"ratio": 2.0})
    ok_base = schema(fast_path={"ratio": 0.50}, generator={"ratio": 2.5})
    assert perfbench.compare_to_baseline(current, ok_base) == []
    bad_base = schema(fast_path={"ratio": 0.60}, generator={"ratio": 2.5})
    failures = perfbench.compare_to_baseline(current, bad_base)
    assert len(failures) == 1 and "fast_path" in failures[0]
    # A section the payload did not measure is not gated ...
    assert perfbench.compare_to_baseline(schema(), ok_base) == []
    # ... but one the baseline lacks fails instead of passing vacuously.
    failures = perfbench.compare_to_baseline(
        schema(fast_path_small={"ratio": 0.3}), ok_base)
    assert failures == ["fast_path_small is missing from the baseline"]


def test_render_gate_shows_each_ratio_beside_its_floor():
    """Every ratio the gate judges is printed with the baseline's ratio
    and the floor it must stay above, in gate order."""
    current = schema(fast_path={"ratio": 0.40},
                     designs={"MPOD": {"refs_per_sec": 1.0, "ratio": 0.2},
                              "DFC": {"refs_per_sec": 1.0, "ratio": 0.3}})
    baseline = schema(fast_path={"ratio": 0.50},
                      designs={"MPOD": {"ratio": 0.3}})
    rows = perfbench.render_gate(current, baseline).splitlines()
    assert rows[0].split() == ["gated", "ratio", "run", "baseline", "floor"]
    assert rows[1].split() == ["fast_path", "0.400", "0.500", "0.350"]
    assert rows[2].split() == ["design", "MPOD", "0.200", "0.300", "0.210"]
    assert rows[3].split() == ["design", "DFC", "0.300", "missing"]
    assert len(rows) == 4


def test_compare_to_baseline_gates_per_design():
    current = schema(designs={"MPOD": {"refs_per_sec": 1.0, "ratio": 0.2},
                               "LGM": {"refs_per_sec": 1.0, "ratio": 0.3}})
    baseline = schema(designs={"MPOD": {"ratio": 0.3},
                                "LGM": {"ratio": 0.3}})
    failures = perfbench.compare_to_baseline(current, baseline)
    assert len(failures) == 1 and "MPOD" in failures[0]
    # fast_path_small participates in the gate like the other sections.
    failures = perfbench.compare_to_baseline(
        schema(fast_path_small={"ratio": 0.1}),
        schema(fast_path_small={"ratio": 0.5}))
    assert len(failures) == 1 and "fast_path_small" in failures[0]
    failures = perfbench.compare_to_baseline(
        schema(designs={"DFC": {"ratio": 0.3}}), baseline)
    assert failures == ["design DFC is missing from the baseline"]
    # The small-trace section is gated per design the same way.
    small_base = schema(designs_small={"MPOD": {"ratio": 0.3}})
    failures = perfbench.compare_to_baseline(
        schema(designs_small={"MPOD": {"ratio": 0.2},
                              "CHA": {"ratio": 0.3}}), small_base)
    assert failures[0].startswith("designs_small MPOD ratio regressed")
    assert failures[1] == "designs_small CHA is missing from the baseline"
    assert perfbench.compare_to_baseline(
        schema(designs_small={"MPOD": {"ratio": 0.25}}), small_base) == []


def test_compare_to_baseline_rejects_schema_mismatch():
    """A schema-2 baseline gated seed-engine speedups, and a schema-3 one
    has no small-trace design section; against either the gate fails and
    says why."""
    current = schema(designs={"MPOD": {"ratio": 0.3}})
    for old in (2, 3):
        old_baseline = {"schema": old, "designs": {"MPOD": {"ratio": 3.0}}}
        failures = perfbench.compare_to_baseline(current, old_baseline)
        assert len(failures) == 1
        assert f"schema {old}" in failures[0]
        assert f"schema {perfbench.BENCH_SCHEMA}" in failures[0]
    assert perfbench.compare_to_baseline(
        current, {"designs": {"MPOD": {"ratio": 0.3}}}) != []


def test_compare_to_baseline_refuses_other_run_settings():
    """The ratios move with the trace length and the number of rounds, so
    a 40k-ref payload is not gated against a 60k-ref baseline: the gate
    fails and names every setting that differs.  The runtime only prints
    a note, so it does not fail the gate."""
    settings = {"refs": 60_000, "workload": "mcf", "repeat": 5,
                "small_refs": 2_000,
                "environment": {"python": "3.11.7"}}
    baseline = schema(**settings, fast_path={"ratio": 0.5})
    payload = schema(**dict(settings, refs=40_000),
                     fast_path={"ratio": 0.5})
    failures = perfbench.compare_to_baseline(payload, baseline)
    assert failures == ["run settings differ from the baseline: refs "
                        "40000 vs baseline 60000 (rerun at the baseline's "
                        "settings)"]
    payload.update(workload="lbm", repeat=2, small_refs=None)
    failures = perfbench.compare_to_baseline(payload, baseline)
    assert [failure.split(": ")[1].split()[0] for failure in failures] == [
        "refs", "workload", "repeat", "small_refs"]
    same = schema(**dict(settings, environment={"python": "3.12.1"}),
                  fast_path={"ratio": 0.5})
    assert perfbench.compare_to_baseline(same, baseline) == []


def test_bench_cli_writes_report_and_gates(tmp_path, capsys, monkeypatch):
    narrow_designs(monkeypatch, "BASELINE")
    out = tmp_path / "BENCH_engine.json"
    args = ["bench", "--refs", "300", "--repeat", "1"]
    assert main(args + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["designs"]) == {"BASELINE"}
    assert payload["fast_path"]["refs_per_sec"] > 0

    # A baseline with absurd ratios must trip the regression gate.
    impossible = dict(payload, fast_path=dict(payload["fast_path"],
                                              ratio=1e9))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(impossible))
    assert main(args + ["--baseline", str(baseline)]) == 1
    captured = capsys.readouterr()
    assert "PERF REGRESSION" in captured.err
    # The gate table shows the impossible baseline ratio and its floor.
    assert any(line.split()[:1] == ["fast_path"]
               and "1000000000.000" in line and "700000000.000" in line
               for line in captured.out.splitlines())


def test_bench_cli_round_trip_gates_every_section(tmp_path, capsys,
                                                  monkeypatch):
    """``bench --out F`` then ``bench --baseline F`` at the same settings
    passes, and the gate judges every section: the engine ones and each
    registry design at the full and the small trace length.  The payload
    has the checked-in baseline's keys, so writing a run over that file
    is how it is refreshed."""
    out = tmp_path / "BENCH_engine.json"
    args = ["bench", "--refs", str(perfbench.SMALL_REFS + 500),
            "--repeat", "3"]
    assert main(args + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == set(json.loads(CHECKED_IN_BASELINE.read_text()))
    capsys.readouterr()
    # Two independent short runs differ by timer noise that the real
    # gate (60k refs, median of 5 rounds) averages away.
    monkeypatch.setattr(perfbench, "MAX_REGRESSION", 0.75)
    assert main(args + ["--baseline", str(out)]) == 0
    output = capsys.readouterr().out
    assert f"no perf regression vs {out} (>75% gate)" in output
    table = output.split("gated ratio")[1].split("no perf regression")[0]
    gated = [" ".join(row.split()[:-3]) for row in table.splitlines()[1:]]
    assert gated == ["fast_path", "fast_path_small", "generator"] + [
        f"{section} {label}" for section in ("design", "designs_small")
        for label in DESIGN_FACTORIES]


@pytest.mark.parametrize("args", [["--refs", "0"], ["--refs", "-5"],
                                  ["--refs", "300", "--repeat", "0"],
                                  ["--refs", "300", "--repeat", "-1"]])
def test_bench_cli_refuses_bad_counts(args, tmp_path, capsys):
    out = tmp_path / "BENCH_engine.json"
    assert main(["bench", *args, "--out", str(out)]) == 2
    assert "refs >= 1 and repeat >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_bench_cli_has_only_the_four_options(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    options = {token.strip("[],") for token in capsys.readouterr().out.split()
               if token.startswith(("--", "[--"))}
    assert options == {"--help", "--refs", "--repeat", "--out", "--baseline"}


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
    ``fast_path``, work inside one design's step trips that design, a
    slower trace generator trips ``generator``, and a per-sector Python
    scan in ``RemapTable.count_in_near`` (the stat every MPOD cell
    collects) trips MPOD's small-trace section.  Each slowdown at least
    triples the time of what it slows, well clear of host noise."""
    def run(labels, refs, small_refs):
        # Its own patch context: tripped() undoes only the slowdown.
        with monkeypatch.context() as patch:
            narrow_designs(patch, *labels)
            patch.setattr(perfbench, "SMALL_REFS", small_refs)
            return perfbench.run_benchmark(refs=refs)

    # The 20k-ref run leaves its small-trace sections out (SMALL_REFS at
    # refs); the MPOD run times them at the real SMALL_REFS.
    main_run = (("TAGLESS",), 20_000, 20_000)
    small_run = (("MPOD",), 4_000, perfbench.SMALL_REFS)
    before = run(*main_run)
    before_small = run(*small_run)

    def tripped(section, settings=main_run, before=before):
        failures = perfbench.compare_to_baseline(run(*settings), before)
        monkeypatch.undo()
        return [f for f in failures
                if f.startswith(section + " ratio regressed")]

    driver = simulator._driver

    def slow_driver(width):
        drive = driver(width)

        def slow_drive(stream, step, *args):
            def slowed(*step_args):
                spin()
                return step(*step_args)
            drive(stream, slowed, *args)
        return slow_drive

    monkeypatch.setattr(simulator, "_driver", slow_driver)
    assert tripped("fast_path")

    cls = type(DESIGN_FACTORIES["TAGLESS"](make_config()))
    make_step = cls._step

    def slow_step(self):
        step = make_step(self)

        def slowed(*args):
            spin()
            return step(*args)
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

    def scan_count_in_near(self):
        return sum(1 for sector in range(self.num_sectors)
                   if self.lookup(sector)[0])

    monkeypatch.setattr(RemapTable, "count_in_near", scan_count_in_near)
    assert tripped("designs_small MPOD", small_run, before_small)
