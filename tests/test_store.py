"""Tests for the persistent result store: round-trip fidelity, cache-hit
behaviour, resume semantics and corruption tolerance."""

import pytest

from repro.params import make_config
from repro.sim.faults import corrupt_store_cell
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import RunResult
from repro.sim.store import (CELL_CORRUPT, CELL_MISS, CELL_OK, CELL_STALE,
                             ResultStore, open_store)
from repro.sim.sweep import SweepJob, coerce_design, run_jobs
from repro.stats import Stats
from repro.workloads import get_workload

SCALE = 1024
REFS = 600


def sample_result() -> RunResult:
    stats = Stats()
    stats.inc("nm.bytes", 4096.0)
    stats.inc("policy.migrations", 7)
    return RunResult(design="HYBRID2", workload="mcf", cycles=123.5,
                     instructions=42_000, references=600,
                     nm_service_ratio=0.75, nm_traffic_bytes=4096.0,
                     fm_traffic_bytes=8192.0, energy_pj=1.5e6,
                     flat_capacity_bytes=1 << 20, stats=stats)


def make_runner(store, workers=1):
    return ExperimentRunner(num_references=REFS, scale=SCALE, seed=3,
                            workers=workers, store=store)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------
def test_round_trip_preserves_everything(tmp_path):
    store = ResultStore(tmp_path)
    original = sample_result()
    store.put("a" * 64, original)
    loaded = store.get("a" * 64)
    assert loaded is not None
    assert loaded.as_dict() == original.as_dict()
    assert loaded.stats.as_dict() == original.stats.as_dict()
    assert loaded.ipc == original.ipc


def test_miss_returns_none(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get("b" * 64) is None
    assert ("b" * 64) not in store


def test_corrupt_and_stale_files_are_misses(tmp_path):
    store = ResultStore(tmp_path)
    key = "c" * 64
    store.put(key, sample_result())
    store.backend.store_raw(key, "{not json")
    assert store.get(key) is None
    stale = {"format": -1, "result": sample_result().as_dict()}
    store.write_payload(key, stale)
    assert store.get(key) is None


def test_malformed_keys_are_rejected(tmp_path):
    store = ResultStore(tmp_path)
    for bad in ("", "../escape", "a/b", "a.b"):
        with pytest.raises(ValueError):
            store.probe(bad)
        with pytest.raises(ValueError):
            store.put(bad, sample_result())


def test_keys_len_and_clear(tmp_path):
    store = ResultStore(tmp_path)
    assert len(store) == 0
    store.put("d" * 64, sample_result())
    store.put("e" * 64, sample_result())
    assert sorted(store.keys()) == ["d" * 64, "e" * 64]
    assert len(store) == 2
    assert store.clear() == 2
    assert len(store) == 0


def test_open_store_coercions(tmp_path):
    assert open_store(None) is None
    store = ResultStore(tmp_path)
    assert open_store(store) is store
    coerced = open_store(str(tmp_path))
    assert isinstance(coerced, ResultStore)
    assert coerced.root == tmp_path


# ---------------------------------------------------------------------------
# cache-hit behaviour through the runner
# ---------------------------------------------------------------------------
def test_repeated_sweep_hits_store_completely(tmp_path):
    store = ResultStore(tmp_path)
    first = make_runner(store).sweep_designs_by_name(
        ["HYBRID2", "TAGLESS"], ["mcf", "lbm"], nm_gb=1)
    runner = make_runner(store, workers=2)
    second = runner.sweep_designs_by_name(
        ["HYBRID2", "TAGLESS"], ["mcf", "lbm"], nm_gb=1)
    report = runner.last_report
    assert report.simulated == 0
    assert report.cached == report.total == 6
    for key in first.runs:
        assert first.runs[key].as_dict() == second.runs[key].as_dict()


def test_interrupted_sweep_resumes_missing_cells_only(tmp_path):
    store = ResultStore(tmp_path)
    warm = make_runner(store)
    config = warm.config_for(nm_gb=1)
    warm.run_one("HYBRID2", "mcf", config)   # one cell already done
    runner = make_runner(store)
    runner.sweep(["HYBRID2", "TAGLESS"], ["mcf"], config=config)
    report = runner.last_report
    assert report.cached == 1                # the pre-warmed cell
    assert report.simulated == 2             # baseline + TAGLESS


def test_store_results_survive_process_boundaries(tmp_path):
    # A second *store instance* on the same directory sees the results —
    # the cross-process persistence the resume workflow relies on.
    runner = make_runner(ResultStore(tmp_path))
    runner.run_one("HYBRID2", "mcf", runner.config_for(nm_gb=1))
    assert runner.last_report.simulated == 1
    rerun = make_runner(ResultStore(tmp_path))
    rerun.run_one("HYBRID2", "mcf", rerun.config_for(nm_gb=1))
    assert rerun.last_report.simulated == 0
    assert rerun.last_report.cached == 1


def test_parallel_sweep_populates_store(tmp_path):
    store = ResultStore(tmp_path)
    runner = make_runner(store, workers=2)
    runner.sweep_designs_by_name(["HYBRID2"], ["mcf"], nm_gb=1)
    assert runner.last_report.simulated == 2
    assert len(store) == 2


def _exploding_design(config):
    raise RuntimeError("boom")


def test_completed_cells_persist_before_a_later_failure(tmp_path):
    # Results are written to the store as they complete, so a sweep that
    # dies partway through still leaves its finished cells for the re-run.
    store = ResultStore(tmp_path)
    config = make_config(nm_gb=1, fm_gb=16, scale=SCALE)
    good = SweepJob(design=coerce_design("HYBRID2"),
                    workload=get_workload("mcf"), config=config,
                    num_references=REFS, seed=3)
    bad = SweepJob(design=coerce_design(_exploding_design, "BOOM"),
                   workload=get_workload("mcf"), config=config,
                   num_references=REFS, seed=3)
    # strict mode preserves the historic fail-fast contract
    # (SweepExecutionError subclasses RuntimeError).
    with pytest.raises(RuntimeError):
        run_jobs([good, bad], workers=1, store=store,
                 strict=True, max_attempts=1)
    assert len(store) == 1
    assert store.get(good.cache_key()) is not None


def test_run_jobs_without_store_never_caches(tmp_path):
    runner = make_runner(None)
    runner.run_one("HYBRID2", "mcf", runner.config_for(nm_gb=1))
    assert runner.last_report.cached == 0
    report = run_jobs([], workers=1, store=None)
    assert report.total == 0


# ---------------------------------------------------------------------------
# integrity: checksums, probe statuses, keys() consistency
# ---------------------------------------------------------------------------
def make_job(seed=3):
    config = make_config(nm_gb=1, fm_gb=16, scale=SCALE)
    return SweepJob(design=coerce_design("HYBRID2"),
                    workload=get_workload("mcf"), config=config,
                    num_references=REFS, seed=seed)


def test_probe_distinguishes_miss_stale_corrupt_ok(tmp_path):
    store = ResultStore(tmp_path)
    key = "f" * 64
    assert store.probe(key) == (CELL_MISS, None)
    store.put(key, sample_result())
    status, result = store.probe(key)
    assert status == CELL_OK and result is not None
    payload = store.read_payload(key)
    payload["result"]["cycles"] += 1.0       # silent bit rot
    store.write_payload(key, payload)
    assert store.probe(key) == (CELL_CORRUPT, None)
    store.write_payload(key, {"format": -1})
    assert store.probe(key) == (CELL_STALE, None)
    store.backend.store_raw(key, "{not json")
    assert store.probe(key) == (CELL_CORRUPT, None)


def test_keys_and_len_exclude_unreadable_cells(tmp_path):
    # Satellite: a corrupted cell must not count as a cached result.
    store = ResultStore(tmp_path)
    good, bad = "a" * 64, "b" * 64
    store.put(good, sample_result())
    store.put(bad, sample_result())
    corrupt_store_cell(store, bad)
    assert list(store.keys()) == [good]
    assert len(store) == 1
    assert bad not in store
    assert dict(store.scan()) == {good: CELL_OK, bad: CELL_CORRUPT}


def test_fsck_detects_and_quarantines_corruption(tmp_path):
    store = ResultStore(tmp_path)
    run_jobs([make_job(seed=3), make_job(seed=4)], workers=1, store=store)
    key = make_job(seed=4).cache_key()
    corrupt_store_cell(store, key)
    report = store.fsck()
    assert report.scanned == 2 and report.ok == 1
    assert [issue.key for issue in report.corrupt] == [key]
    assert not report.clean
    assert report.corrupt[0].quarantined_to is not None
    assert store.quarantine_stats()[0] == 1
    assert store.probe(key) == (CELL_MISS, None)
    assert store.fsck().clean                # second pass: nothing left


def test_fsck_repair_restores_bit_identical_cells(tmp_path):
    store = ResultStore(tmp_path)
    job = make_job()
    run_jobs([job], workers=1, store=store)
    key = job.cache_key()

    def stored_text():
        return store.backend.fetch(key).columns

    pristine = stored_text()
    corrupt_store_cell(store, key)
    assert stored_text() != pristine
    report = store.fsck(repair=True)
    assert report.clean
    assert [issue.key for issue in report.repaired] == [key]
    assert stored_text() == pristine         # re-simulated, byte-for-byte


def test_fsck_reports_unrepairable_garbage(tmp_path):
    store = ResultStore(tmp_path)
    key = "e" * 64
    store.backend.store_raw(key, "{not json")
    report = store.fsck(repair=True)
    assert not report.clean
    assert [issue.key for issue in report.unrepaired_corrupt] == [key]
    assert report.corrupt[0].quarantined_to is not None


def test_put_embeds_recoverable_job_spec(tmp_path):
    store = ResultStore(tmp_path)
    job = make_job()
    run_jobs([job], workers=1, store=store)
    spec = store.job_spec(job.cache_key())
    assert spec == job.spec_dict()
    corrupt_store_cell(store, job.cache_key())
    # The job description survives result corruption — that is what makes
    # ``fsck --repair`` possible.
    assert store.job_spec(job.cache_key()) == job.spec_dict()
