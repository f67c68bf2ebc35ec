"""Trace-backed workloads end to end: golden simulation counters over
the checked-in corpus, sweep/store integration, and spec round trips.

The golden tests mirror ``test_engine_equivalence.py``: driving a
:class:`TraceFileWorkload` through ``simulate()`` must reproduce the
``corpus`` cells of the frozen golden ``tests/data/golden/
engine_traces.json``, recorded while the seed per-record engine still
ran beside the columnar one and agreed with it.  The counters over the
exact corpus bytes are pinned, so a parser or driver change can never
silently shift results.
"""

import json
import pickle
import runpy
import shutil
from pathlib import Path

import pytest

from repro.baselines import DESIGN_FACTORIES
from repro.params import make_config
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import _forget_inputs, simulate
from repro.sim.store import ResultStore
from repro.sim.sweep import SweepJob, coerce_design, job_from_spec
from repro.trace import cache_dir_for
from repro.workloads import (TraceFileWorkload, is_trace_token,
                             workload_from_token)

CORPUS = Path(__file__).parent / "data" / "traces"
CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
REFS = 1200
ENGINE_TOOL = runpy.run_path(str(Path(__file__).resolve().parents[1]
                                 / "tools" / "make_engine_golden.py"))
CORPUS_GOLDEN = json.loads((Path(__file__).parent / "data" / "golden"
                            / "engine_traces.json").read_text())["corpus"]


@pytest.fixture
def corpus_copy(tmp_path):
    """The corpus copied into tmp, so tests never leave ``.trcache``
    sidecars (or anything else) next to the checked-in files."""
    target = tmp_path / "traces"
    target.mkdir()
    for source in CORPUS.iterdir():
        if source.is_file():
            shutil.copy(source, target / source.name)
    return target


def assert_identical(result, reference):
    left, right = result.as_dict(), reference.as_dict()
    for key in right:
        assert left[key] == right[key], (
            f"counter {key!r} diverged: {left[key]!r} != {right[key]!r}")


# ---------------------------------------------------------------------------
# golden equivalence: simulate() == the seed engine's counters over real
# trace files
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("design", ["HYBRID2", "TAGLESS", "CHA"])
@pytest.mark.parametrize("filename", ["stream8.tsv", "mixed4.csv"])
def test_corpus_counters_identical_to_seed_engine(corpus_copy, design,
                                                  filename):
    got = ENGINE_TOOL["run_corpus_cell"](design, corpus_copy / filename)
    expected = CORPUS_GOLDEN[f"{design}/{filename}"]
    assert ENGINE_TOOL["diff"](got, expected) == []
    assert got == expected
    assert got["workload"] == Path(filename).stem


def test_corpus_golden_covers_the_cells():
    assert list(CORPUS_GOLDEN) == [name for name, *_ in
                                   ENGINE_TOOL["corpus_cells"]()]
    assert ENGINE_TOOL["CORPUS_REFS"] == REFS


def test_cached_and_parsed_loads_simulate_identically(corpus_copy):
    workload = TraceFileWorkload.from_path(corpus_copy / "hotcold.tsv.gz")
    factory = DESIGN_FACTORIES["HYBRID2"]
    # Each run loads the file: the first parses it and writes the sidecar,
    # the second reads the sidecar, neither reuses the last run's inputs.
    _forget_inputs()
    cold = simulate(factory(CONFIG), workload, num_references=REFS, seed=1)
    assert cache_dir_for(workload.path).is_dir()
    _forget_inputs()
    warm = simulate(factory(CONFIG), workload, num_references=REFS, seed=1)
    assert_identical(warm, cold)


def test_load_traces_splits_and_truncates(corpus_copy):
    workload = TraceFileWorkload.from_path(corpus_copy / "mixed4.csv")
    traces = workload.load_traces()
    assert len(traces) == 4
    assert sum(len(t) for t in traces) == 2400
    capped = workload.load_traces(num_references=1000)
    assert sum(len(t) for t in capped) == 1000


def test_load_traces_refuses_changed_bytes(corpus_copy):
    path = corpus_copy / "stream8.tsv"
    workload = TraceFileWorkload.from_path(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("99999999\tdead\t0\n")
    with pytest.raises(ValueError, match="changed on disk"):
        workload.load_traces()


# ---------------------------------------------------------------------------
# workload identity: dicts, tokens, pickling
# ---------------------------------------------------------------------------
def test_from_path_strips_trace_suffixes(corpus_copy):
    assert TraceFileWorkload.from_path(corpus_copy / "stream8.tsv").name == \
        "stream8"
    assert TraceFileWorkload.from_path(
        corpus_copy / "hotcold.tsv.gz").name == "hotcold"
    assert TraceFileWorkload.from_path(
        corpus_copy / "mixed4.csv", name="custom").name == "custom"


def test_dict_round_trip_and_cache_dict_path_independence(corpus_copy):
    workload = TraceFileWorkload.from_path(corpus_copy / "stream8.tsv")
    assert TraceFileWorkload.from_dict(workload.as_dict()) == workload
    moved_dir = corpus_copy / "elsewhere"
    moved_dir.mkdir()
    moved_path = moved_dir / "renamed.tsv"
    shutil.copy(workload.path, moved_path)
    moved = TraceFileWorkload.from_path(moved_path, name=workload.name)
    # Same bytes under a different path: same cache identity, different
    # repair spec (which must keep the real location).
    assert moved.cache_dict() == workload.cache_dict()
    assert moved.as_dict() != workload.as_dict()
    assert "path" not in workload.cache_dict()


def test_trace_tokens(corpus_copy):
    token = f"trace:{corpus_copy / 'stream8.tsv'}"
    assert is_trace_token(token) and not is_trace_token("mcf")
    workload = workload_from_token(token)
    assert workload.name == "stream8"
    with pytest.raises(ValueError):
        workload_from_token("mcf")
    with pytest.raises(ValueError):
        workload_from_token("trace:")


def test_workload_pickles(corpus_copy):
    workload = TraceFileWorkload.from_path(corpus_copy / "stream8.tsv")
    assert pickle.loads(pickle.dumps(workload)) == workload


# ---------------------------------------------------------------------------
# sweep + store integration
# ---------------------------------------------------------------------------
def make_runner(store, workers=1):
    return ExperimentRunner(num_references=REFS, scale=256, seed=3,
                            workers=workers, store=store)


def test_sweep_over_trace_workloads_hits_store_on_rerun(corpus_copy,
                                                        tmp_path):
    store = ResultStore(tmp_path / "store")
    workloads = [TraceFileWorkload.from_path(corpus_copy / "stream8.tsv"),
                 TraceFileWorkload.from_path(corpus_copy / "mixed4.csv")]
    warm = make_runner(store)
    first = warm.sweep(["HYBRID2"], workloads)
    assert warm.last_report.simulated == 4      # 2 cells + 2 baselines
    assert set(first.speedups("HYBRID2")) == {"stream8", "mixed4"}
    assert all(v > 0 for v in first.speedups("HYBRID2").values())
    runner = make_runner(store, workers=2)
    second = runner.sweep(["HYBRID2"], workloads)
    assert runner.last_report.simulated == 0
    assert runner.last_report.cached == runner.last_report.total == 4
    for key in first.runs:
        assert second.runs[key].as_dict() == first.runs[key].as_dict()


def test_store_key_survives_moving_the_trace_file(corpus_copy, tmp_path):
    design = coerce_design("HYBRID2", "HYBRID2")
    original = SweepJob(design=design,
                        workload=TraceFileWorkload.from_path(
                            corpus_copy / "stream8.tsv"),
                        config=CONFIG, num_references=REFS, seed=3)
    moved_path = tmp_path / "moved.tsv"
    shutil.copy(corpus_copy / "stream8.tsv", moved_path)
    moved = SweepJob(design=design,
                     workload=TraceFileWorkload.from_path(
                         moved_path, name="stream8"),
                     config=CONFIG, num_references=REFS, seed=3)
    assert original.cache_key() == moved.cache_key()


def test_store_key_changes_with_trace_content(corpus_copy):
    design = coerce_design("HYBRID2", "HYBRID2")
    path = corpus_copy / "stream8.tsv"
    before = SweepJob(design=design,
                      workload=TraceFileWorkload.from_path(path),
                      config=CONFIG, num_references=REFS, seed=3)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("99999999\tdead\t0\n")
    after = SweepJob(design=design,
                     workload=TraceFileWorkload.from_path(path),
                     config=CONFIG, num_references=REFS, seed=3)
    assert before.cache_key() != after.cache_key()


def test_job_spec_round_trips_trace_workload(corpus_copy):
    job = SweepJob(design=coerce_design("HYBRID2", "HYBRID2"),
                   workload=TraceFileWorkload.from_path(
                       corpus_copy / "mixed4.csv"),
                   config=CONFIG, num_references=REFS, seed=3)
    spec = job.spec_dict()
    assert spec is not None
    assert spec["workload"]["kind"] == "tracefile"
    rebuilt = job_from_spec(spec)
    assert rebuilt.workload == job.workload
    assert rebuilt.cache_key() == job.cache_key()


def test_runner_resolves_trace_tokens(corpus_copy, tmp_path):
    token = f"trace:{corpus_copy / 'hotcold.tsv.gz'}"
    result = make_runner(None).sweep(["HYBRID2"], [token], baselines=False)
    assert result.workload_names() == ["hotcold"]
    assert result.run_for("HYBRID2", "hotcold").references > 0
