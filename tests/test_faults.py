"""Fault-injection stress tests for the supervised sweep engine.

Every scenario uses the deterministic ``REPRO_FAULTS`` plan (see
:mod:`repro.sim.faults`): job *i* misbehaves on exactly its first K
attempts, so retries, timeouts, worker deaths and store corruption are
reproducible rather than flaky.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.params import make_config
from repro.sim import faults
from repro.sim.faults import FaultPlan, FaultSpec, InjectedFault
from repro.sim.store import CELL_CORRUPT, CELL_OK, ResultStore
from repro.sim.sweep import (SweepExecutionError, SweepJob, coerce_design,
                             job_from_spec, run_jobs)
from repro.workloads import WORKLOADS, get_workload

SCALE = 1024
REFS = 300

WORKLOAD_NAMES = [spec.name for spec in WORKLOADS]


def make_jobs(count, designs=("HYBRID2", "DFC")):
    """``count`` distinct, picklable jobs (design x workload grid walk)."""
    config = make_config(nm_gb=1, fm_gb=16, scale=SCALE)
    jobs = []
    for i in range(count):
        jobs.append(SweepJob(
            design=coerce_design(designs[i % len(designs)]),
            workload=get_workload(WORKLOAD_NAMES[i % len(WORKLOAD_NAMES)]),
            config=config, num_references=REFS, seed=7 + i))
    return jobs


def plan_env(monkeypatch, *specs):
    monkeypatch.setenv(faults.ENV_VAR, FaultPlan(specs).to_json())


# ---------------------------------------------------------------------------
# plan parsing and injection plumbing
# ---------------------------------------------------------------------------
def test_plan_round_trips_through_json():
    plan = FaultPlan([FaultSpec(job=3, mode="crash", attempts=2),
                      FaultSpec(job=5, mode="hang", seconds=9.0)])
    again = FaultPlan.parse(plan.to_json())
    assert len(again) == 2
    assert again.for_job(3).mode == "crash"
    assert again.for_job(3).attempts == 2
    assert again.for_job(5).seconds == 9.0
    assert again.for_job(4) is None


def test_plan_parse_accepts_bare_list():
    plan = FaultPlan.parse('[{"job": 0, "mode": "die"}]')
    assert plan.for_job(0).mode == "die"


def test_plan_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown fault mode"):
        FaultSpec(job=0, mode="explode")
    with pytest.raises(ValueError, match="unknown fault keys"):
        FaultPlan.parse('[{"job": 0, "mode": "crash", "moed": 1}]')
    with pytest.raises(ValueError, match="duplicate"):
        FaultPlan([FaultSpec(job=1, mode="crash"),
                   FaultSpec(job=1, mode="hang")])
    with pytest.raises(ValueError):
        FaultPlan.parse('"not a list"')


def test_inject_is_scoped_to_first_attempts(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=2, mode="crash", attempts=2))
    faults.inject(0, 1)                      # other jobs untouched
    with pytest.raises(InjectedFault):
        faults.inject(2, 1)
    with pytest.raises(InjectedFault):
        faults.inject(2, 2)
    faults.inject(2, 3)                      # past the faulty attempts
    monkeypatch.delenv(faults.ENV_VAR)
    faults.inject(2, 1)                      # plan gone → inert


def test_should_corrupt_matches_mode_and_attempt(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=1, mode="corrupt"))
    assert faults.should_corrupt(1, 1)
    assert not faults.should_corrupt(1, 2)
    assert not faults.should_corrupt(0, 1)


# ---------------------------------------------------------------------------
# serial path: retries and structured failures
# ---------------------------------------------------------------------------
def test_serial_crash_is_retried_to_success(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=0, mode="crash", attempts=1))
    report = run_jobs(make_jobs(2), workers=1, max_attempts=3, backoff=0)
    assert report.complete
    assert all(r is not None for r in report.results)
    # job 0: 1 failed + 1 good attempt; job 1: 1 good attempt.
    assert report.attempts == 3
    assert report.simulated == 2


def test_serial_exhausted_crash_degrades_to_failure(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=1, mode="crash", attempts=99))
    report = run_jobs(make_jobs(3), workers=1, max_attempts=2, backoff=0)
    assert not report.complete
    assert report.results[1] is None
    assert report.results[0] is not None and report.results[2] is not None
    assert [f.index for f in report.failures] == [1]
    failure = report.failures[0]
    assert failure.error_type == "InjectedFault"
    assert failure.attempts == 2
    assert "injected crash" in failure.message
    assert "InjectedFault" in failure.traceback
    assert report.simulated == 2             # only successful cells count


def test_strict_mode_raises_on_first_exhausted_job(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=0, mode="crash", attempts=99))
    with pytest.raises(SweepExecutionError) as excinfo:
        run_jobs(make_jobs(2), workers=1, max_attempts=2, backoff=0,
                 strict=True)
    assert excinfo.value.failures[0].error_type == "InjectedFault"
    assert isinstance(excinfo.value, RuntimeError)   # old contract


def test_backoff_delays_serial_retries(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=0, mode="crash", attempts=2))
    start = time.monotonic()
    report = run_jobs(make_jobs(1), workers=1, max_attempts=3, backoff=0.1)
    elapsed = time.monotonic() - start
    assert report.complete
    assert elapsed >= 0.3                    # 0.1 + 0.2 backoff sleeps


# ---------------------------------------------------------------------------
# supervised parallel path: crashes, hangs, worker death
# ---------------------------------------------------------------------------
def test_parallel_crash_is_retried_to_success(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=1, mode="crash", attempts=1))
    jobs = make_jobs(4)
    report = run_jobs(jobs, workers=2, max_attempts=3, backoff=0)
    assert report.complete
    assert report.attempts == 5
    clean = run_jobs(jobs, workers=1)
    for faulty, reference in zip(report.results, clean.results):
        assert faulty.as_dict() == reference.as_dict()


def test_parallel_worker_death_is_respawned_and_retried(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=0, mode="die", attempts=1))
    report = run_jobs(make_jobs(3), workers=2, max_attempts=3, backoff=0)
    assert report.complete
    assert all(r is not None for r in report.results)


def test_parallel_worker_death_exhausted_is_structured(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=0, mode="die", attempts=99))
    report = run_jobs(make_jobs(2), workers=2, max_attempts=2, backoff=0)
    assert [f.index for f in report.failures] == [0]
    assert report.failures[0].error_type == "WorkerDeath"
    assert "17" in report.failures[0].message       # the injected exit code
    assert report.results[1] is not None


def test_hung_job_is_killed_by_timeout_and_retried(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=0, mode="hang", attempts=1,
                                    seconds=60.0))
    start = time.monotonic()
    report = run_jobs(make_jobs(2), workers=2, max_attempts=2, backoff=0,
                      timeout=1.0)
    elapsed = time.monotonic() - start
    assert report.complete                   # killed, retried, succeeded
    assert elapsed < 30.0                    # nowhere near the 60s hang
    assert report.attempts >= 3


def test_hung_job_exhausted_reports_timeout(monkeypatch):
    plan_env(monkeypatch, FaultSpec(job=0, mode="hang", attempts=99,
                                    seconds=60.0))
    report = run_jobs(make_jobs(2), workers=2, max_attempts=2, backoff=0,
                      timeout=0.5)
    assert [f.index for f in report.failures] == [0]
    assert report.failures[0].error_type == "Timeout"
    assert report.failures[0].attempts == 2
    assert report.results[1] is not None


def test_acceptance_mixed_crash_and_hang_sweep(monkeypatch, tmp_path):
    """The issue's acceptance scenario: a 10-job sweep with a 10% crash
    rate plus one hung job completes with every non-faulty cell present,
    the hung job killed by the timeout and retried."""
    plan_env(monkeypatch,
             FaultSpec(job=3, mode="crash", attempts=1),
             FaultSpec(job=7, mode="hang", attempts=1, seconds=60.0))
    store = ResultStore(tmp_path)
    jobs = make_jobs(10)
    report = run_jobs(jobs, workers=4, store=store, max_attempts=3,
                      backoff=0, timeout=2.0)
    assert report.complete
    assert all(r is not None for r in report.results)
    assert report.attempts >= 12             # 10 jobs + 2 retried faults
    assert len(store) == 10                  # every cell persisted
    # Strict mode with the faults exhausted must raise instead.
    plan_env(monkeypatch, FaultSpec(job=3, mode="crash", attempts=99))
    store.clear()
    with pytest.raises(SweepExecutionError):
        run_jobs(jobs, workers=4, store=store, max_attempts=2, backoff=0,
                 timeout=2.0, strict=True)


def test_faulted_parallel_results_match_clean_serial(monkeypatch):
    jobs = make_jobs(4)
    clean = run_jobs(jobs, workers=1)
    plan_env(monkeypatch,
             FaultSpec(job=0, mode="crash", attempts=1),
             FaultSpec(job=2, mode="die", attempts=1))
    faulty = run_jobs(jobs, workers=3, max_attempts=3, backoff=0)
    assert faulty.complete
    for a, b in zip(clean.results, faulty.results):
        assert a.as_dict() == b.as_dict()    # retries stay bit-identical


# ---------------------------------------------------------------------------
# corrupt mode: the store self-heals
# ---------------------------------------------------------------------------
def test_corrupt_write_is_detected_and_resimulated(monkeypatch, tmp_path):
    store = ResultStore(tmp_path)
    jobs = make_jobs(2)
    plan_env(monkeypatch, FaultSpec(job=0, mode="corrupt", attempts=1))
    first = run_jobs(jobs, workers=1, store=store, max_attempts=1)
    assert first.complete                    # corruption is silent on write
    key = jobs[0].cache_key()
    assert store.probe(key)[0] == CELL_CORRUPT
    assert store.get(key) is None            # corrupt never served
    monkeypatch.delenv(faults.ENV_VAR)
    second = run_jobs(jobs, workers=1, store=store)
    assert second.cached == 1                # the intact cell
    assert second.simulated == 1             # the corrupt cell, re-run
    assert store.probe(key)[0] == CELL_OK    # healed on disk
    assert (second.results[0].as_dict() == first.results[0].as_dict())


def test_corrupt_write_self_heals_on_sqlite_backend(monkeypatch, tmp_path):
    """The corrupt-mode fault and the self-heal loop work on a store
    opened by ``sqlite:`` URI (the fault goes through the store's payload
    API)."""
    store = ResultStore(f"sqlite:{tmp_path}")
    assert store.backend.kind == "sqlite"
    jobs = make_jobs(2)
    plan_env(monkeypatch, FaultSpec(job=0, mode="corrupt", attempts=1))
    first = run_jobs(jobs, workers=1, store=store, max_attempts=1)
    assert first.complete
    key = jobs[0].cache_key()
    assert store.probe(key)[0] == CELL_CORRUPT
    monkeypatch.delenv(faults.ENV_VAR)
    second = run_jobs(jobs, workers=1, store=store)
    assert second.cached == 1 and second.simulated == 1
    assert store.probe(key)[0] == CELL_OK


#: Wall-clock burned by every attempt of the slow-failing design below.
SLOW_FAIL_S = 0.12


def slow_exploding_design(config):
    """Module-level factory (importable by worker processes): every build
    burns measurable wall-clock, then fails."""
    time.sleep(SLOW_FAIL_S)
    raise RuntimeError("injected slow failure")


def test_failure_duration_totals_attempts_on_both_paths():
    """Satellite: ``JobFailure.duration_s`` is the job's *total* wall-clock
    across every attempt on the serial and the parallel path alike (the
    serial path used to report only the final attempt's duration)."""
    from repro.sim.sweep import DesignRef

    slow_job = SweepJob(
        design=DesignRef.of("tests.test_faults:slow_exploding_design",
                            label="SLOWFAIL"),
        workload=get_workload(WORKLOAD_NAMES[0]),
        config=make_config(nm_gb=1, fm_gb=16, scale=SCALE),
        num_references=REFS, seed=1)
    serial = run_jobs([slow_job], workers=1, max_attempts=3, backoff=0)
    parallel = run_jobs([slow_job] + make_jobs(1), workers=2,
                        max_attempts=3, backoff=0)
    for report in (serial, parallel):
        assert [f.index for f in report.failures] == [0]
        failure = report.failures[0]
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 3
        assert failure.duration_s >= 3 * SLOW_FAIL_S


def test_job_spec_round_trips_to_identical_cache_key():
    job = make_jobs(1)[0]
    rebuilt = job_from_spec(job.spec_dict())
    assert rebuilt.cache_key() == job.cache_key()
    assert rebuilt.run().as_dict() == job.run().as_dict()


# ---------------------------------------------------------------------------
# interrupted sweep: finished cells survive and the re-run resumes
# ---------------------------------------------------------------------------
RESUME_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from tests.test_faults import make_jobs
from repro.sim.store import ResultStore
from repro.sim.sweep import run_jobs

run_jobs(make_jobs(4), workers=2, store=ResultStore({store!r}),
         max_attempts=1)
"""


def test_killed_sweep_resumes_from_persisted_cells(monkeypatch, tmp_path):
    """Satellite 4: SIGKILL a sweep mid-flight (one job hung so it cannot
    finish), then a fresh ``run_jobs`` serves the finished cells from the
    store and simulates only the missing one."""
    store_dir = tmp_path / "store"
    script = tmp_path / "sweep_victim.py"
    repo_root = Path(__file__).resolve().parents[1]
    script.write_text(RESUME_SCRIPT.format(src=str(repo_root),
                                           store=str(store_dir)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(repo_root / "src"), str(repo_root),
                    os.environ.get("PYTHONPATH", "")]),
               REPRO_FAULTS=FaultPlan(
                   [FaultSpec(job=3, mode="hang", seconds=600.0)]).to_json())
    victim = subprocess.Popen([sys.executable, str(script)], env=env,
                              start_new_session=True)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            # Count through the store API, so only verified cells count.
            if store_dir.is_dir() and len(ResultStore(store_dir)) >= 3:
                break
            if victim.poll() is not None:
                pytest.fail(f"sweep exited early (rc {victim.returncode}) "
                            f"instead of hanging on the faulty job")
            time.sleep(0.05)
        else:
            pytest.fail("sweep never persisted its three healthy cells")
        # Kill the whole process group mid-sweep — supervisor and workers.
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:            # pragma: no cover - cleanup
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)

    store = ResultStore(store_dir)
    resumed = run_jobs(make_jobs(4), workers=1, store=store)
    assert resumed.complete
    assert resumed.cached == 3               # recovered, not recomputed
    assert resumed.simulated == 1            # only the job the kill lost
    assert len(store) == 4
