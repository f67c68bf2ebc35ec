"""Golden-metrics equivalence of the simulation engine.

Every :class:`~repro.sim.simulator.RunResult` counter of
:func:`~repro.sim.simulator.simulate` is pinned bit for bit, against
frozen goldens and a stepped oracle rather than a second live engine:

* ``tests/data/golden/engine_matrix.json`` — every design in the sweep
  catalog on ``mcf``, ``cg.D``, ``omnetpp`` and ``lbm`` at two trace
  seeds, plus the report benches' extra configurations;
* ``tests/data/golden/engine_traces.json`` — the SHA-256 of every trace
  column the generator produced for a set of cases, recorded while the
  seed per-record generator still ran beside it and agreed;
* the stepped ``IntervalCore`` oracle in
  ``tests/engine_oracle.py``, for realistic multi-core schedules and the
  scheduler edge cases (no warm-up, cores draining apart, one trace).

Both goldens are regenerated only on purpose, with
``tools/make_engine_golden.py``.
"""

import json
import runpy
from pathlib import Path

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.cpu.trace import Trace
from repro.params import make_config
from repro.sim.simulator import simulate
from repro.workloads.catalog import get_workload
from repro.workloads.synthetic import (generate_multiprogrammed,
                                       generate_trace, stream_pattern)

from engine_oracle import stepped_reference

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
GOLDEN_DIR = ROOT / "tests" / "data" / "golden"
ENGINE_GOLDEN = json.loads((GOLDEN_DIR / "engine_matrix.json").read_text())
TRACE_GOLDEN = json.loads((GOLDEN_DIR / "engine_traces.json").read_text())
#: Golden cell name (``design/workload/seed``) -> ``(design, workload, seed)``.
ENGINE_CELLS = {name: cell for name, *cell in ENGINE_TOOL["cells"]()}


def assert_identical(result, reference):
    left, right = result.as_dict(), reference.as_dict()
    for key in right:
        assert left[key] == right[key], (
            f"counter {key!r} diverged: {left[key]!r} != {right[key]!r}")


def assert_generator_golden(case):
    assert ENGINE_TOOL["generator_case"](case) == \
        TRACE_GOLDEN["generator"][case]


# ---------------------------------------------------------------------------
# generator equivalence: the column digests the seed generator produced
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ENGINE_TOOL["CATALOG_HEAD"])
def test_generate_trace_matches_seed_generator(name):
    assert_generator_golden(name)


def test_generate_trace_matches_seed_generator_streaming():
    assert_generator_golden("stream")


def test_generate_multiprogrammed_matches_seed_generator():
    assert_generator_golden("multiprogrammed/mcf")


def test_trace_golden_covers_the_generator_cases():
    assert list(TRACE_GOLDEN["generator"]) == \
        list(ENGINE_TOOL["GENERATOR_CASES"])
    assert list(ENGINE_TOOL["CATALOG_HEAD"]) == \
        list(TRACE_GOLDEN["generator"])[:6]


def test_trace_digest_sees_every_column():
    trace = generate_trace(get_workload("mcf"), 50, seed=1)
    columns = {column: getattr(trace, column).copy()
               for column in ("gaps", "addresses", "is_write", "core_ids")}
    digest = ENGINE_TOOL["trace_digest"](trace)
    for column, values in columns.items():
        moved = dict(columns)
        moved[column] = values.copy()
        moved[column][7] ^= 1
        changed = ENGINE_TOOL["trace_digest"](Trace(**moved))
        assert [key for key in digest if changed[key] != digest[key]] == \
            [column]


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
# simulate() == the stepped oracle, every design in the sweep catalog, over
# a workloads x seeds matrix of generated multi-core traces
# ---------------------------------------------------------------------------
def assert_matches_stepped(factory, workload, traces, **kwargs):
    """``simulate()`` on ``workload`` against the oracle on ``traces``,
    the traces ``simulate()`` drives for it."""
    result = simulate(factory(CONFIG), workload, **kwargs)
    reference = stepped_reference(
        factory(CONFIG), traces, name=result.workload,
        warmup_fraction=kwargs.get("warmup_fraction", 0.25))
    assert_identical(result, reference)


def catalog_traces(factory, workload, refs, seed):
    """The per-core traces ``simulate()`` generates for a catalog
    workload."""
    cores = CONFIG.cores.num_cores
    return generate_multiprogrammed(
        get_workload(workload), refs // cores, num_cores=cores,
        scale=CONFIG.scale, seed=seed,
        address_limit=factory(CONFIG).flat_capacity_bytes)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
@pytest.mark.parametrize("design", sorted(DESIGN_FACTORIES))
def test_run_result_counters_identical(design, workload, seed):
    factory = DESIGN_FACTORIES[design]
    assert_matches_stepped(factory, get_workload(workload),
                           catalog_traces(factory, workload, REFS, seed),
                           num_references=REFS, seed=seed)


def test_equivalence_without_warmup():
    factory = DESIGN_FACTORIES["HYBRID2"]
    assert_matches_stepped(factory, get_workload("mcf"),
                           catalog_traces(factory, "mcf", 1500, 1),
                           num_references=1500, seed=1,
                           warmup_fraction=0.0)


def test_equivalence_with_unequal_core_traces():
    """The flattened scheduler must reproduce the pass-based round-robin
    when cores drain at different times."""
    traces = [stream_pattern(101, start=0),
              stream_pattern(37, start=1 << 20),
              stream_pattern(0)]
    assert_matches_stepped(DESIGN_FACTORIES["TAGLESS"], traces, traces)


def test_equivalence_single_trace():
    trace = generate_trace(get_workload("lbm"), 900, seed=4)
    assert_matches_stepped(DESIGN_FACTORIES["MPOD"], trace, [trace])
