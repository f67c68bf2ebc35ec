"""Golden-metrics equivalence of the simulation engine.

Two references pin every :class:`~repro.sim.simulator.RunResult` counter
of :func:`~repro.sim.simulator.simulate`, bit for bit:

* the frozen golden ``tests/data/golden/engine_matrix.json`` — every
  design in the sweep catalog on ``mcf``, ``cg.D``, ``omnetpp`` and
  ``lbm`` at two trace seeds, recorded before the driver kept only the
  latency-dependent update per reference, and regenerated only on
  purpose with ``tools/make_engine_golden.py``;
* the preserved seed engine :mod:`repro.sim.legacy` (per-record
  generator and driver), for the generator and the scheduler edge cases.
  It runs on the same DRAM kernels and design code as ``simulate()``, so
  it sees only driver and generator changes; the golden sees everything.
"""

import json
import runpy
from pathlib import Path

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.params import make_config
from repro.sim import legacy
from repro.sim.simulator import simulate
from repro.workloads.catalog import WORKLOADS, get_workload
from repro.workloads.synthetic import (WorkloadSpec, generate_multiprogrammed,
                                       generate_trace, stream_pattern)

CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
REFS = 2500
#: One high-MPKI SPEC (multi-programmed, split footprint), one NAS
#: (multi-threaded, shared footprint) and one low-spatial-locality workload
#: (``omnetpp`` stresses the over-fetch paths of the page-granular caches).
GOLDEN_WORKLOADS = ("mcf", "cg.D", "omnetpp")
#: Two trace seeds so the pinning covers different address/interleave mixes.
GOLDEN_SEEDS = (2, 11)


ROOT = Path(__file__).resolve().parents[1]
ENGINE_TOOL = runpy.run_path(str(ROOT / "tools" / "make_engine_golden.py"))
ENGINE_GOLDEN = json.loads((ROOT / "tests" / "data" / "golden"
                            / "engine_matrix.json").read_text())
#: Golden cell name (``design/workload/seed``) -> ``(design, workload, seed)``.
ENGINE_CELLS = {name: cell for name, *cell in ENGINE_TOOL["cells"]()}


def assert_identical(result, reference):
    left, right = result.as_dict(), reference.as_dict()
    for key in right:
        assert left[key] == right[key], (
            f"counter {key!r} diverged: {left[key]!r} != {right[key]!r}")


# ---------------------------------------------------------------------------
# generator equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", [w.name for w in WORKLOADS[:6]])
def test_generate_trace_matches_seed_generator(name):
    spec = get_workload(name)
    new = generate_trace(spec, 700, seed=5, core_id=3, base_address=1 << 22)
    ref = legacy.generate_trace_reference(spec, 700, seed=5, core_id=3,
                                          base_address=1 << 22)
    assert list(new) == list(ref)


def test_generate_trace_matches_seed_generator_streaming():
    spec = WorkloadSpec(name="stream", suite="SPEC", mpki_class="high",
                        mpki=30.0, footprint_gb=4.0, streaming=True)
    assert list(generate_trace(spec, 600, seed=2)) == \
        list(legacy.generate_trace_reference(spec, 600, seed=2))


def test_generate_multiprogrammed_matches_seed_generator():
    spec = get_workload("mcf")
    news = generate_multiprogrammed(spec, 200, num_cores=4, seed=3)
    refs = legacy.generate_multiprogrammed_reference(spec, 200, num_cores=4,
                                                     seed=3)
    assert [list(t) for t in news] == [list(t) for t in refs]


# ---------------------------------------------------------------------------
# the frozen engine golden
# ---------------------------------------------------------------------------
def test_engine_golden_covers_the_design_catalog():
    assert list(ENGINE_GOLDEN) == list(ENGINE_CELLS)
    assert set(DESIGN_FACTORIES) <= {cell[0] for cell in ENGINE_CELLS.values()}


@pytest.mark.parametrize("name", list(ENGINE_CELLS))
def test_run_result_matches_engine_golden(name):
    got = ENGINE_TOOL["run_cell"](*ENGINE_CELLS[name])
    expected = ENGINE_GOLDEN[name]
    assert ENGINE_TOOL["diff"](got, expected) == []
    assert got == expected


# ---------------------------------------------------------------------------
# full-engine equivalence, every design in the sweep catalog, over a
# workloads x seeds matrix (the design fast paths must be bit-identical to
# the seed per-record engine on every one of them)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
@pytest.mark.parametrize("design", sorted(DESIGN_FACTORIES))
def test_run_result_counters_identical(design, workload, seed):
    spec = get_workload(workload)
    factory = DESIGN_FACTORIES[design]
    result = simulate(factory(CONFIG), spec, num_references=REFS, seed=seed)
    reference = legacy.simulate_reference(factory(CONFIG), spec,
                                          num_references=REFS, seed=seed)
    assert_identical(result, reference)


def test_equivalence_without_warmup():
    spec = get_workload("mcf")
    factory = DESIGN_FACTORIES["HYBRID2"]
    result = simulate(factory(CONFIG), spec, num_references=1500, seed=1,
                      warmup_fraction=0.0)
    reference = legacy.simulate_reference(factory(CONFIG), spec,
                                          num_references=1500, seed=1,
                                          warmup_fraction=0.0)
    assert_identical(result, reference)


def test_equivalence_with_unequal_core_traces():
    """The flattened scheduler must reproduce the seed pass-based
    round-robin when cores drain at different times."""
    traces = [stream_pattern(101, start=0),
              stream_pattern(37, start=1 << 20),
              stream_pattern(0)]
    factory = DESIGN_FACTORIES["TAGLESS"]
    result = simulate(factory(CONFIG), traces, seed=1)
    reference = legacy.simulate_reference(factory(CONFIG), traces, seed=1)
    assert_identical(result, reference)


def test_equivalence_single_trace():
    trace = generate_trace(get_workload("lbm"), 900, seed=4)
    factory = DESIGN_FACTORIES["MPOD"]
    assert_identical(
        simulate(factory(CONFIG), trace, seed=1),
        legacy.simulate_reference(factory(CONFIG), trace, seed=1))
