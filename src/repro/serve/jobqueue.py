"""Background sweep executor behind ``POST /v1/jobs``.

A :class:`JobQueue` accepts design x workload specs, normalises them into
the sweep engine's own self-contained job description
(:meth:`~repro.sim.sweep.SweepJob.spec_dict` /
:func:`~repro.sim.sweep.job_from_spec` — the same form ``fsck --repair``
re-simulates from), and executes them on worker threads through
:func:`~repro.sim.sweep.run_jobs`, so a service-submitted job inherits
the entire fault-tolerance stack: retries with backoff, structured
:class:`~repro.sim.sweep.JobFailure` records, and store write-back.

Scheduling is priority-first (higher ``priority`` runs earlier; ties in
submission order), and submissions are **deduplicated twice** before any
simulation happens:

* against the **store**, via the same
  :func:`~repro.sim.sweep.prepare_submission` pass ``run_jobs`` uses —
  a key already present as a healthy cell completes instantly as
  ``cached``;
* against **other jobs** of this queue (queued, running or finished) by
  :meth:`~repro.sim.sweep.SweepJob.cache_key` — a repeated identical
  ``POST`` returns the existing job instead of enqueueing a twin.

Every state change appends a structured event to the job's event log;
:meth:`JobQueue.wait_events` long-polls that log for
``GET /v1/jobs/<id>/events``.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..params import make_config
from ..sim.sweep import (DesignRef, SweepJob, check_design, job_from_spec,
                         prepare_submission, run_jobs)
from ..workloads.catalog import get_workload

#: Job lifecycle statuses.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"          # simulated (or served by run_jobs' own dedup)
JOB_FAILED = "failed"      # exhausted its attempts; see ``failures``
JOB_CACHED = "cached"      # store hit at submission; never queued

TERMINAL = (JOB_DONE, JOB_FAILED, JOB_CACHED)

#: Hard ceiling on per-job trace length through the service: the serve
#: layer is for interactive cells, not paper-scale sweeps (run those
#: through ``python -m repro sweep``).
MAX_REFS = 1_000_000


class JobSpecError(ValueError):
    """A submitted job spec could not be parsed or validated."""


@dataclass
class JobRecord:
    """One submitted job and everything that happened to it."""

    id: str
    spec: Dict[str, Any]            # SweepJob.spec_dict() form
    key: Optional[str]
    priority: int
    status: str = JOB_QUEUED
    events: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    failures: List[Dict[str, Any]] = field(default_factory=list)
    attempts: int = 0
    simulated: int = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "status": self.status,
            "key": self.key,
            "priority": self.priority,
            "design": self.spec["design"]["label"],
            "workload": self.spec["workload"]["name"],
            "events": len(self.events),
        }

    def as_dict(self) -> Dict[str, Any]:
        out = self.summary()
        out.update({
            "spec": self.spec,
            "result": self.result,
            "failures": list(self.failures),
            "attempts": self.attempts,
            "simulated": self.simulated,
        })
        return out


class JobQueue:
    """Priority queue + worker threads over the sweep engine."""

    def __init__(self, store, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._store = store
        self._cond = threading.Condition()
        self._jobs: Dict[str, JobRecord] = {}
        #: cache_key -> job id, for dedup against in-flight and finished
        #: jobs (failed jobs are evicted so a retry can be resubmitted).
        self._by_key: Dict[str, str] = {}
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._closed = False
        #: Simulations actually executed (not served by any dedup) —
        #: tests pin dedup behaviour on this counter.
        self.sim_count = 0
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"repro-serve-job-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- spec parsing ------------------------------------------------------
    def _job_from_payload(self, payload: Dict[str, Any]) -> SweepJob:
        """Normalise a submission body into a :class:`SweepJob`.

        Accepts either the engine's own ``{"spec": {...}}`` form (a full
        :meth:`SweepJob.spec_dict`) or the friendly shorthand::

            {"design": "HYBRID2", "workload": "mcf",
             "refs": 2000, "nm_gb": 1, "fm_gb": 16,
             "scale": 256, "seed": 1, "priority": 0}

        Both land in :func:`job_from_spec`, so a service job is byte-for-
        byte the job a sweep or an fsck repair would run.
        """
        if not isinstance(payload, dict):
            raise JobSpecError("job submission must be a JSON object")
        if "spec" in payload:
            spec = payload["spec"]
            if not isinstance(spec, dict):
                raise JobSpecError("'spec' must be a JSON object")
            try:
                job = job_from_spec(spec)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise JobSpecError(f"malformed job spec: {exc}")
        else:
            job = self._job_from_shorthand(payload)
        if not (0 < job.num_references <= MAX_REFS):
            raise JobSpecError(
                f"refs must be in 1..{MAX_REFS} "
                f"(got {job.num_references}); run larger sweeps through "
                f"'python -m repro sweep'")
        # Check the design NOW: an unknown design must fail the submission
        # with a 400, not the worker thread minutes later.
        try:
            check_design(job.design.target)
        except Exception as exc:
            message = exc.args[0] if exc.args else exc
            raise JobSpecError(str(message))
        return job

    def _job_from_shorthand(self, payload: Dict[str, Any]) -> SweepJob:
        known = {"design", "workload", "refs", "nm_gb", "fm_gb", "scale",
                 "seed", "num_cores", "priority"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobSpecError(f"unknown job field(s) {unknown}; "
                               f"known: {sorted(known)}")
        design = payload.get("design")
        workload = payload.get("workload")
        if not isinstance(design, str) or not isinstance(workload, str):
            raise JobSpecError(
                "job needs 'design' and 'workload' names (strings)")
        try:
            ref = DesignRef.of(design)
            spec = get_workload(workload)
            config = make_config(nm_gb=int(payload.get("nm_gb", 1)),
                                 fm_gb=int(payload.get("fm_gb", 16)),
                                 scale=int(payload.get("scale", 256)))
            job = SweepJob(design=ref, workload=spec, config=config,
                           num_references=int(payload.get("refs", 2000)),
                           seed=int(payload.get("seed", 1)),
                           num_cores=payload.get("num_cores"))
            # Round-trip through the stored-spec form: validates that the
            # design label resolves and the spec is JSON-pure before the
            # job ever reaches a worker.
            return job_from_spec(job.spec_dict())
        except JobSpecError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            message = exc.args[0] if exc.args else exc
            raise JobSpecError(str(message))

    # -- submission --------------------------------------------------------
    def submit(self, payload: Dict[str, Any]
               ) -> Tuple[JobRecord, bool]:
        """Submit one job; returns ``(record, deduped)``.

        ``deduped`` is true when no new work was enqueued: the key was
        already a healthy store cell (status ``cached``) or an existing
        job of this queue (its record is returned).
        """
        job = self._job_from_payload(payload)
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError, OverflowError):
            raise JobSpecError("priority must be an integer")
        # The store probe runs outside the lock, so long-polls never wait
        # on store I/O; dedup against this queue's jobs is re-checked
        # under the lock below.
        submission = prepare_submission([job], self._store)
        key = submission.keys[0]
        with self._cond:
            if self._closed:
                raise RuntimeError("job queue is shut down")
            if key is not None and key in self._by_key:
                return self._jobs[self._by_key[key]], True
            self._seq += 1
            record = JobRecord(id=f"job-{self._seq:04d}",
                               spec=job.spec_dict(), key=key,
                               priority=priority)
            self._jobs[record.id] = record
            if key is not None:
                self._by_key[key] = record.id
            if 0 in submission.cached:
                record.status = JOB_CACHED
                record.result = submission.cached[0].as_dict()
                self._event(record, "cached", key=key)
                self._cond.notify_all()
                return record, True
            self._event(record, "queued", priority=priority)
            heapq.heappush(self._heap, (-priority, self._seq, record.id))
            self._cond.notify_all()
            return record, False

    # -- queries -----------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}")

    def jobs(self) -> List[JobRecord]:
        with self._cond:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def wait_events(self, job_id: str, after: int = 0,
                    timeout: float = 0.0
                    ) -> Tuple[JobRecord, List[Dict[str, Any]]]:
        """Events of ``job_id`` with ``seq > after``, long-polling.

        Blocks up to ``timeout`` seconds for a fresh event; returns
        immediately once the job is terminal (no further events will
        ever arrive) or on a fresh event.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while True:
                record = self.get(job_id)
                fresh = [e for e in record.events if e["seq"] > after]
                remaining = deadline - time.monotonic()
                if fresh or record.status in TERMINAL or remaining <= 0:
                    return record, fresh
                self._cond.wait(timeout=min(remaining, 1.0))

    def stats(self) -> Dict[str, Any]:
        """Queue occupancy summary (surfaced by ``/v1/health``)."""
        with self._cond:
            by_status: Dict[str, int] = {}
            for record in self._jobs.values():
                by_status[record.status] = by_status.get(record.status,
                                                         0) + 1
            return {"jobs": len(self._jobs), "by_status": by_status,
                    "queued": len(self._heap),
                    "simulations": self.sim_count,
                    "workers": len(self._threads)}

    # -- worker loop -------------------------------------------------------
    def _event(self, record: JobRecord, name: str, **fields: Any) -> None:
        # Caller holds self._cond.
        record.events.append({"seq": len(record.events) + 1,
                              "event": name, **fields})

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                _, _, job_id = heapq.heappop(self._heap)
                record = self._jobs[job_id]
                record.status = JOB_RUNNING
                self._event(record, "started")
                self._cond.notify_all()
            try:
                job = job_from_spec(record.spec)
                report = run_jobs([job], workers=1, store=self._store)
            except Exception as exc:
                # run_jobs degrades failures to JobFailure records; only
                # engine-level errors (lost jobs, unwritable store) land
                # here.  The job must still reach a terminal state.
                with self._cond:
                    record.status = JOB_FAILED
                    record.failures = [{"error_type": type(exc).__name__,
                                        "message": str(exc)}]
                    self._event(record, "failed",
                                error=f"{type(exc).__name__}: {exc}")
                    if record.key is not None:
                        self._by_key.pop(record.key, None)
                    self._cond.notify_all()
                continue
            with self._cond:
                self.sim_count += report.simulated
                record.attempts = report.attempts
                record.simulated = report.simulated
                if report.failures:
                    record.status = JOB_FAILED
                    record.failures = [f.as_dict()
                                       for f in report.failures]
                    self._event(record, "failed",
                                attempts=report.attempts,
                                failures=record.failures)
                    # Allow a clean resubmission of a failed key.
                    if record.key is not None:
                        self._by_key.pop(record.key, None)
                else:
                    record.status = JOB_DONE
                    record.result = report.results[0].as_dict()
                    self._event(record, "finished",
                                attempts=report.attempts,
                                simulated=report.simulated,
                                cached=report.cached)
                self._cond.notify_all()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (queued-but-unstarted jobs stay queued)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
