"""Tests for the simulation harness, metrics and experiment runner."""

from dataclasses import replace

import pytest

from repro.baselines.fm_only import FarMemoryOnly
from repro.baselines.ideal_cache import IdealCache
from repro.core.hybrid2 import Hybrid2System
from repro.sim import metrics
from repro.sim.runner import ExperimentRunner
from repro.sim.perfbench import NullMemorySystem
from repro.sim.simulator import RunResult, simulate
from repro.sim.tables import format_table
from repro.stats import Stats
from repro.workloads import (generate_multiprogrammed, generate_trace,
                             get_workload)


# ---------------------------------------------------------------------------
# fast-path simulate()
# ---------------------------------------------------------------------------
def test_simulate_produces_consistent_result(small_config):
    system = FarMemoryOnly(small_config)
    result = simulate(system, get_workload("mcf"), num_references=2000, seed=1)
    assert result.design == "BASELINE"
    assert result.workload == "mcf"
    assert result.cycles > 0
    assert result.references > 0
    assert result.ipc > 0
    assert result.nm_service_ratio == 0.0


@pytest.mark.parametrize("refs", [0, -3])
def test_simulate_refuses_a_non_positive_reference_count(small_config,
                                                         refs):
    """It once ran one reference per core for these counts."""
    with pytest.raises(ValueError, match="num_references must be positive"):
        simulate(NullMemorySystem(small_config), get_workload("mcf"),
                 num_references=refs, seed=1)


def test_llc_latency_is_charged_once_per_measured_reference(small_config):
    trace = generate_trace(get_workload("mcf"), 1200, seed=2)

    def run(llc_latency_cycles):
        cores = replace(small_config.cores,
                        llc_latency_cycles=llc_latency_cycles)
        config = replace(small_config, cores=cores)
        return simulate(NullMemorySystem(config), trace)

    base, slower = run(14), run(114)
    assert slower.references == base.references == 900
    assert slower.cycles - base.cycles == pytest.approx(
        base.references * 100)


def test_simulate_is_deterministic(small_config):
    a = simulate(FarMemoryOnly(small_config), get_workload("mcf"),
                 num_references=1500, seed=9)
    b = simulate(FarMemoryOnly(small_config), get_workload("mcf"),
                 num_references=1500, seed=9)
    assert a.cycles == pytest.approx(b.cycles)
    assert a.fm_traffic_bytes == b.fm_traffic_bytes


def test_simulate_accepts_explicit_traces(small_config):
    spec = get_workload("mcf")
    traces = generate_multiprogrammed(spec, 200, num_cores=2,
                                      scale=small_config.scale, seed=1)
    result = simulate(FarMemoryOnly(small_config), traces)
    assert result.workload == "trace"
    assert result.references > 0


def test_simulate_warmup_reduces_measured_references(small_config):
    system = FarMemoryOnly(small_config)
    cold = simulate(system, get_workload("mcf"), num_references=2000, seed=1,
                    warmup_fraction=0.0)
    warm = simulate(FarMemoryOnly(small_config), get_workload("mcf"),
                    num_references=2000, seed=1, warmup_fraction=0.5)
    assert warm.references < cold.references
    assert warm.cycles < cold.cycles


def test_speedup_over_baseline(small_config):
    baseline = simulate(FarMemoryOnly(small_config), get_workload("mcf"),
                        num_references=2000, seed=1)
    cached = simulate(IdealCache(small_config, line_size=256),
                      get_workload("mcf"), num_references=2000, seed=1)
    assert cached.speedup_over(baseline) > 1.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def make_result(name, workload, cycles, fm=1000.0, nm=0.0, energy=100.0):
    return RunResult(design=name, workload=workload, cycles=cycles,
                     instructions=1000, references=100, nm_service_ratio=0.5,
                     nm_traffic_bytes=nm, fm_traffic_bytes=fm, energy_pj=energy,
                     flat_capacity_bytes=1 << 20, stats=Stats())


def test_geometric_mean():
    assert metrics.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    assert metrics.geometric_mean([]) == 0.0


def test_speedup_requires_same_workload():
    a = make_result("A", "mcf", 100.0)
    b = make_result("B", "lbm", 200.0)
    with pytest.raises(ValueError):
        metrics.speedup(a, b)


def test_normalised_traffic_and_energy():
    baseline = make_result("BASE", "mcf", 200.0, fm=1000.0, nm=0.0, energy=400.0)
    design = make_result("X", "mcf", 100.0, fm=500.0, nm=250.0, energy=200.0)
    assert metrics.normalised_traffic(design, baseline, "fm") == pytest.approx(0.5)
    assert metrics.normalised_traffic(design, baseline, "nm") == pytest.approx(0.25)
    assert metrics.normalised_energy(design, baseline) == pytest.approx(0.5)


def test_group_by_class_uses_catalog_classes():
    per_workload = {"lbm": 2.0, "mcf": 2.0, "omnetpp": 1.5, "namd": 1.0}
    grouped = metrics.group_by_class(per_workload)
    assert grouped["high"] == pytest.approx(2.0)
    assert grouped["medium"] == pytest.approx(1.5)
    assert grouped["low"] == pytest.approx(1.0)
    assert "all" in grouped


def test_min_max_geomean():
    summary = metrics.min_max_geomean([1.0, 2.0, 4.0])
    assert summary["min"] == 1.0 and summary["max"] == 4.0
    assert summary["geomean"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------
def test_runner_sweep_produces_speedups(small_config):
    runner = ExperimentRunner(num_references=1600, scale=1024, seed=3)
    sweep = runner.sweep_designs_by_name(["HYBRID2", "TAGLESS"],
                                         ["mcf", "namd"], nm_gb=1)
    speedups = sweep.speedups("HYBRID2")
    assert set(speedups) == {"mcf", "namd"}
    assert all(value > 0 for value in speedups.values())
    by_class = sweep.class_speedups("TAGLESS")
    assert "all" in by_class


def test_runner_rejects_unknown_design():
    runner = ExperimentRunner(num_references=100)
    with pytest.raises(KeyError):
        runner.sweep_designs_by_name(["NOPE"], ["mcf"])


def hybrid2_factory(config):
    """A module-level design factory, importable by name."""
    return Hybrid2System(config)


def test_runner_accepts_callable_designs(small_config):
    runner = ExperimentRunner(num_references=800, scale=1024, seed=3)
    sweep = runner.sweep([hybrid2_factory], ["mcf"], design_names=["H2"])
    assert sweep.runs[("H2", "mcf")].design == "HYBRID2"


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


