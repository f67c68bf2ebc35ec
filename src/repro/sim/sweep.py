"""Parallel sweep engine: decompose a sweep into independent jobs.

The paper's evaluation is a large design-space sweep (30 workloads x 7+
designs x 3 NM sizes).  Every (design, workload, configuration) cell is an
independent simulation — each run builds a *fresh* memory system and a
deterministic trace from an explicit seed — so the sweep parallelises
trivially.  This module provides the pieces:

* :class:`DesignRef` — a picklable, hashable reference to a memory-system
  design: either a registry label (``"HYBRID2"``) or an importable factory
  (``"repro.baselines.dfc:DecoupledFusedCache"``) plus keyword arguments.
  It is the only form a job's design takes: :func:`coerce_design` promotes
  a module-level callable to one and refuses a lambda or closure, which a
  worker process could not import by name nor the store key stably.
* :class:`SweepJob` — one simulation cell.  ``cache_key()`` returns a
  stable hash of everything that determines the result (design, workload
  spec, system configuration, trace length, seed, core count), used by the
  persistent :class:`~repro.sim.store.ResultStore`; ``spec_dict()`` is the
  JSON description :func:`job_from_spec` rebuilds the job from, which
  refuses a config with a missing or unknown field.
* :func:`run_jobs` — execute a list of jobs under a fault-tolerant
  supervisor.  When ``workers > 1`` jobs fan out over supervised worker
  processes: a worker exception is captured as a structured
  :class:`JobFailure` instead of aborting the batch, a per-job wall-clock
  ``timeout`` kills and requeues hung workers, failed/timed-out jobs are
  retried up to ``max_attempts`` times with exponential backoff, and a
  dead worker (segfault, OOM-kill) is respawned with its in-flight job
  resubmitted.  Workers re-seed their RNGs and build fresh systems, so
  results are bit-identical to a serial run; jobs whose results are
  already in the store are not re-simulated, and ``strict=True`` restores
  fail-fast semantics (raise on the first exhausted job).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback as traceback_module
from dataclasses import asdict, dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from ..baselines import DESIGN_FACTORIES
from ..common import import_attr
from ..params import CoreParams, DramParams, Hybrid2Params, SystemConfig
from ..workloads.catalog import WorkloadSpec
from ..workloads.tracefile import TraceFileWorkload
from . import faults
from .result import RunResult
from .store import CELL_OK

if TYPE_CHECKING:
    from ..baselines.base import MemorySystem

#: Bump to invalidate every stored result when the engine's semantics
#: (simulate() defaults, key layout, result schema) change incompatibly.
ENGINE_VERSION = 1


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    return float(raw)


def default_max_attempts() -> int:
    """``REPRO_SWEEP_MAX_ATTEMPTS``: attempts per job (default 3); a value
    below 1 raises :class:`ValueError`."""
    attempts = int(_env_float("REPRO_SWEEP_MAX_ATTEMPTS", 3))
    if attempts < 1:
        raise ValueError(f"REPRO_SWEEP_MAX_ATTEMPTS must be >= 1, "
                         f"got {attempts}")
    return attempts


def default_timeout() -> Optional[float]:
    """``REPRO_SWEEP_TIMEOUT``: per-job wall-clock seconds; 0 disables."""
    value = _env_float("REPRO_SWEEP_TIMEOUT", 0.0)
    return value if value > 0 else None


def default_backoff() -> float:
    """``REPRO_SWEEP_BACKOFF``: base retry delay in seconds (default 0.5,
    doubled per attempt)."""
    return max(0.0, _env_float("REPRO_SWEEP_BACKOFF", 0.5))


# ---------------------------------------------------------------------------
# design references
# ---------------------------------------------------------------------------
def _resolve_target(target: str) -> Callable[..., "MemorySystem"]:
    """Resolve a design target to a factory callable.

    ``target`` is either a label of the design registry
    (:data:`~repro.baselines.DESIGN_FACTORIES`) or an importable
    ``"module:attribute"`` path.
    """
    if ":" in target:
        factory = import_attr(target)
        if not callable(factory):
            raise TypeError(f"design target {target!r} is not callable")
        return factory
    check_design(target)
    return DESIGN_FACTORIES[target.upper()]


def check_design(target: str) -> None:
    """Fail fast on a design target that names no design.

    A registry label is checked by membership, which imports nothing; only
    a ``"module:attribute"`` target is imported (and raises if it cannot
    be).
    """
    if ":" in target:
        _resolve_target(target)
    elif target.upper() not in DESIGN_FACTORIES:
        raise KeyError(f"unknown design {target!r}; known: "
                       f"{sorted(DESIGN_FACTORIES)}")


@dataclass(frozen=True)
class DesignRef:
    """Picklable, hashable reference to a memory-system design.

    ``target`` is a registry label (``"HYBRID2"``) or an importable
    ``"module:attribute"`` factory path; ``kwargs`` (stored as a sorted
    tuple of pairs so the reference stays hashable) are forwarded to the
    factory after the :class:`~repro.params.SystemConfig`.
    """

    label: str
    target: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, target: str, label: Optional[str] = None,
           **kwargs: Any) -> "DesignRef":
        return cls(label=label or target.upper(), target=target,
                   kwargs=tuple(sorted(kwargs.items())))

    def build(self, config: SystemConfig) -> "MemorySystem":
        """Instantiate a fresh memory system for ``config``."""
        return _resolve_target(self.target)(config, **dict(self.kwargs))

    def key_dict(self) -> Dict[str, Any]:
        """Stable description used in the job hash (label excluded: two
        labels for the same target+kwargs share cached results)."""
        return {"target": self.target, "kwargs": dict(self.kwargs)}


def coerce_design(design: Union[str, DesignRef, Callable],
                  label: Optional[str] = None) -> DesignRef:
    """Normalise a design given as a label, reference or callable.

    Module-level callables (classes, factory functions) are promoted to a
    :class:`DesignRef` by their import path, which makes them picklable for
    the worker pool and cacheable in the result store.  Any other callable
    (a lambda, a closure, a nested function) raises ``TypeError``.
    """
    if isinstance(design, DesignRef):
        if label and label != design.label:
            return DesignRef(label=label, target=design.target,
                             kwargs=design.kwargs)
        return design
    if isinstance(design, str):
        check_design(design)             # fail fast on unknown labels
        return DesignRef.of(design, label=label)
    if callable(design):
        module = getattr(design, "__module__", None)
        qualname = getattr(design, "__qualname__", "")
        if module and qualname and "<" not in qualname and "." not in qualname:
            target = f"{module}:{qualname}"
            try:
                if _resolve_target(target) is design:
                    return DesignRef.of(
                        target, label=label or qualname.upper())
            except Exception:
                pass
        raise TypeError(
            f"design {design!r} cannot be imported by name, so no worker "
            f"process could build it nor the result store key it: define "
            f"it as a module-level factory, or pass "
            f"DesignRef.of('module:factory', **kwargs)")
    raise TypeError(f"cannot interpret design spec {design!r}")


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------
AnyWorkload = Union[WorkloadSpec, TraceFileWorkload]

#: ``asdict(config)`` by config object id.  A sweep's jobs share one
#: config, and ``asdict`` deep-copies it; each entry holds its config, so
#: the id cannot be reused while the entry lives.
_CONFIG_DICTS: Dict[int, Tuple[SystemConfig, Dict[str, Any]]] = {}


def _config_dict(config: SystemConfig) -> Dict[str, Any]:
    """``asdict(config)``, built once per config object; do not mutate."""
    entry = _CONFIG_DICTS.get(id(config))
    if entry is None:
        if len(_CONFIG_DICTS) >= 64:
            _CONFIG_DICTS.clear()
        entry = _CONFIG_DICTS[id(config)] = (config, asdict(config))
    return entry[1]


@dataclass(frozen=True)
class SweepJob:
    """One independent simulation cell of a sweep."""

    design: DesignRef
    workload: AnyWorkload
    config: SystemConfig
    num_references: int
    seed: int
    num_cores: Optional[int] = None

    def __post_init__(self) -> None:
        # Every job is built here: the CLI, the runner, the service and
        # the fsck repair path (job_from_spec) alike.
        if self.num_references < 1:
            raise ValueError(f"num_references must be positive, got "
                             f"{self.num_references}")

    @property
    def label(self) -> str:
        return self.design.label

    def cache_key(self) -> str:
        """Stable hash of everything that determines this job's result.

        Covers the simulator source itself via
        :func:`~repro.sim.store.model_fingerprint`, so results cached before
        a model change are never served after it.
        """
        from .store import model_fingerprint

        # Trace-backed workloads key by content hash, not by path (see
        # TraceFileWorkload.cache_dict): moving a trace file keeps its
        # cells valid, editing its bytes invalidates them.
        workload = getattr(self.workload, "cache_dict",
                           self.workload.as_dict)()
        payload = {
            "engine": ENGINE_VERSION,
            "model": model_fingerprint(),
            "design": self.design.key_dict(),
            "workload": workload,
            "config": _config_dict(self.config),
            "num_references": self.num_references,
            "seed": self.seed,
            "num_cores": self.num_cores,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def spec_dict(self) -> Dict[str, Any]:
        """JSON-pure, self-contained re-simulation description.

        Stored alongside the result in every cache cell, so ``python -m
        repro store fsck --repair`` can rebuild the job (via
        :func:`job_from_spec`) and re-run it after on-disk corruption.
        """
        spec = {
            "design": {"label": self.design.label,
                       "target": self.design.target,
                       "kwargs": dict(self.design.kwargs)},
            "workload": self.workload.as_dict(),
            "config": _config_dict(self.config),
            "num_references": self.num_references,
            "seed": self.seed,
            "num_cores": self.num_cores,
        }
        # Round-trip through JSON so the stored form is exactly what a
        # reader will see (tuples become lists, keys become strings).
        return json.loads(json.dumps(spec))

    def run(self) -> RunResult:
        """Simulate this cell with a fresh memory system."""
        import numpy as np

        from .simulator import simulate

        # Belt and braces: simulate() derives all randomness from explicit
        # seeds, but re-seed the global RNGs too so no library falls back to
        # worker-dependent entropy and serial == parallel stays bit-exact.
        random.seed(self.seed)
        np.random.seed(self.seed & 0xFFFFFFFF)
        system = self.design.build(self.config)
        return simulate(system, self.workload,
                        num_references=self.num_references, seed=self.seed,
                        num_cores=self.num_cores)


#: The parameter class of each nested field of :class:`SystemConfig`.
_CONFIG_FIELDS = {"cores": CoreParams, "near": DramParams,
                  "far": DramParams, "hybrid2": Hybrid2Params}


def _config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild :func:`_config_dict`'s form; ``TypeError`` names a missing
    or unknown top-level field, so a spec written for another layout of
    :class:`SystemConfig` is refused rather than half-read."""
    expected = set(_CONFIG_FIELDS) | {"scale"}
    unknown = sorted(set(data) - expected)
    if unknown:
        raise TypeError(f"unknown config field(s) {unknown}")
    missing = sorted(expected - set(data))
    if missing:
        raise TypeError(f"missing config field(s) {missing}")
    return SystemConfig(scale=data["scale"], **{
        name: cls(**data[name]) for name, cls in _CONFIG_FIELDS.items()})


def job_from_spec(spec: Dict[str, Any]) -> SweepJob:
    """Rebuild a :class:`SweepJob` from :meth:`SweepJob.spec_dict`.

    Raises ``KeyError`` for a missing field, ``TypeError`` when
    ``design``, its ``kwargs``, ``workload`` or ``config`` is not an
    object, ``config`` misses or adds a field, or ``num_references``,
    ``seed`` or a non-null ``num_cores`` is not an integer, and
    ``ValueError`` when ``seed`` is negative, ``num_cores`` is outside
    ``1..num_references`` or ``num_references`` is below 1, so a stored
    or submitted spec of the wrong shape is refused before it reaches the
    engine.
    """
    for name in ("design", "workload", "config"):
        if not isinstance(spec[name], dict):
            raise TypeError(f"job spec field {name!r} must be an object")
    if not isinstance(spec["design"].get("kwargs", {}), dict):
        raise TypeError("job spec field 'design.kwargs' must be an object")
    for name in ("num_references", "seed"):
        if not isinstance(spec[name], int) or isinstance(spec[name], bool):
            raise TypeError(f"job spec field {name!r} must be an integer")
    if spec["seed"] < 0:
        raise ValueError(f"seed must be non-negative, got {spec['seed']}")
    cores = spec.get("num_cores")
    if cores is not None:
        if not isinstance(cores, int) or isinstance(cores, bool):
            raise TypeError("job spec field 'num_cores' must be an integer "
                            "or null")
        if not 1 <= cores <= spec["num_references"]:
            raise ValueError(f"num_cores must be in 1..num_references "
                             f"({spec['num_references']}), got {cores}")
    design = spec["design"]
    ref = DesignRef(label=design["label"], target=design["target"],
                    kwargs=tuple(sorted(design.get("kwargs", {}).items())))
    workload_spec = spec["workload"]
    workload: AnyWorkload
    if workload_spec.get("kind") == "tracefile":
        workload = TraceFileWorkload.from_dict(workload_spec)
    else:
        workload = WorkloadSpec(**{k: v for k, v in workload_spec.items()
                                   if k != "kind"})
    return SweepJob(design=ref,
                    workload=workload,
                    config=_config_from_dict(spec["config"]),
                    num_references=spec["num_references"],
                    seed=spec["seed"],
                    num_cores=cores)


def _run_attempt(index: int, attempt: int, job: SweepJob) -> RunResult:
    """Execute one attempt of a job, with fault injection applied first."""
    faults.inject(index, attempt)
    return job.run()


def _preload(jobs: Sequence[SweepJob]) -> None:
    """Import the engine, the designs and the trace frontend ``jobs`` use.

    Called before the supervisor forks, so its workers inherit numpy and
    the designs instead of each importing them again.  A target that does
    not import is left for the job's own attempts to report.
    """
    from . import simulator  # noqa: F401

    if any(isinstance(job.workload, TraceFileWorkload) for job in jobs):
        from ..trace import frontend  # noqa: F401
    for target in {job.design.target for job in jobs}:
        try:
            _resolve_target(target)
        except Exception:
            pass


# ---------------------------------------------------------------------------
# failures and reports
# ---------------------------------------------------------------------------
@dataclass
class JobFailure:
    """Structured record of one job that exhausted its attempts."""

    index: int
    label: str
    workload: str
    key: Optional[str]
    error_type: str          # exception class name, "Timeout", "WorkerDeath"
    message: str
    attempts: int            # attempts consumed (== max_attempts)
    duration_s: float        # total wall-clock across every attempt
    traceback: Optional[str] = None

    def describe(self) -> str:
        return (f"job {self.index} ({self.label}/{self.workload}): "
                f"{self.error_type}: {self.message} "
                f"[{self.attempts} attempt(s), {self.duration_s:.2f}s total]")

    def as_dict(self) -> dict:
        return {"index": self.index, "label": self.label,
                "workload": self.workload, "key": self.key,
                "error_type": self.error_type, "message": self.message,
                "attempts": self.attempts, "duration_s": self.duration_s,
                "traceback": self.traceback}


class SweepExecutionError(RuntimeError):
    """A sweep could not produce every requested cell.

    Raised in ``strict`` mode on the first exhausted job, and in any mode
    when the engine would otherwise return silently incomplete results
    (the old ``assert`` here vanished under ``python -O``).
    """

    def __init__(self, failures: Sequence[JobFailure],
                 message: Optional[str] = None) -> None:
        self.failures = list(failures)
        if message is None:
            head = self.failures[0].describe() if self.failures else "unknown"
            extra = (f" (+{len(self.failures) - 1} more)"
                     if len(self.failures) > 1 else "")
            message = f"sweep failed: {head}{extra}"
        super().__init__(message)


@dataclass
class SweepReport:
    """Outcome of :func:`run_jobs`: results plus execution accounting.

    ``results`` is aligned with the submitted jobs; in non-strict mode an
    exhausted job leaves ``None`` at its index and a :class:`JobFailure`
    in ``failures``.  ``attempts`` counts every execution attempt,
    including retries, so ``attempts - simulated`` is the retry overhead.
    """

    results: List[Optional[RunResult]]
    simulated: int = 0
    cached: int = 0
    workers: int = 1
    failures: List[JobFailure] = field(default_factory=list)
    attempts: int = 0

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def complete(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# supervised execution
# ---------------------------------------------------------------------------
def _worker_main(conn) -> None:
    """Worker process loop: receive ``(index, attempt, job)`` tasks over the
    pipe, answer ``(index, attempt, ok, payload, duration)``.

    One pipe per worker: killing a hung worker can only tear its own
    channel, never a queue shared with healthy peers.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, attempt, job = task
        start = time.monotonic()
        try:
            result = _run_attempt(index, attempt, job)
        except BaseException as exc:
            info = (type(exc).__name__, str(exc),
                    traceback_module.format_exc())
            message = (index, attempt, False, info,
                       time.monotonic() - start)
        else:
            message = (index, attempt, True, result,
                       time.monotonic() - start)
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    __slots__ = ("process", "conn", "index", "attempt", "deadline",
                 "started")

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self.index: Optional[int] = None
        self.attempt = 0
        self.deadline: Optional[float] = None
        self.started = 0.0

    @property
    def busy(self) -> bool:
        return self.index is not None

    def assign(self, index: int, attempt: int, job: SweepJob,
               timeout: Optional[float]) -> None:
        self.index = index
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = (self.started + timeout
                         if timeout is not None else None)
        self.conn.send((index, attempt, job))

    def release(self) -> None:
        self.index = None
        self.attempt = 0
        self.deadline = None

    def kill(self) -> None:
        try:
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():     # pragma: no cover - stubborn
                self.process.kill()
                self.process.join(timeout=5.0)
        finally:
            self.conn.close()

    def shutdown(self) -> None:
        """Polite stop for an idle worker; falls back to kill."""
        try:
            self.conn.send(None)
            self.process.join(timeout=5.0)
        except (BrokenPipeError, OSError):
            pass
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


class _Supervisor:
    """Drives a set of worker processes over the pending jobs.

    The supervisor owns all retry state: per-job attempt counts, backoff
    eligibility times, and the classification of every failed attempt
    (worker exception, wall-clock timeout, worker death).  Workers are
    cattle — any that hangs or dies is destroyed and replaced, and its
    in-flight job is requeued against the job's attempt budget.
    """

    #: Floor on the poll interval so deadline checking stays cheap.
    MIN_TICK_S = 0.02
    MAX_TICK_S = 0.5

    def __init__(self, jobs: Sequence[SweepJob], indices: Sequence[int],
                 workers: int, *, max_attempts: int,
                 timeout: Optional[float], backoff: float) -> None:
        import multiprocessing

        self.ctx = multiprocessing.get_context()
        self.jobs = jobs
        self.workers = min(workers, len(indices))
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.backoff = backoff
        # (eligible_at, index, attempt) — kept sorted by eligibility.
        self.ready: List[Tuple[float, int, int]] = [
            (0.0, i, 1) for i in indices]
        self.outstanding = len(indices)
        # Wall-clock already spent per job across its failed attempts, so
        # JobFailure.duration_s reports the *total* cost of the job — the
        # same accounting as the serial path.
        self.spent: Dict[int, float] = {}

    # -- retry bookkeeping ------------------------------------------------
    def _requeue_or_fail(self, index: int, attempt: int, error_type: str,
                         message: str, tb: Optional[str], duration: float,
                         on_failure: Callable[[int, JobFailure], None]
                         ) -> None:
        total = self.spent.get(index, 0.0) + duration
        if attempt < self.max_attempts:
            self.spent[index] = total
            delay = (self.backoff * (2 ** (attempt - 1))
                     if self.backoff > 0 else 0.0)
            self.ready.append((time.monotonic() + delay, index, attempt + 1))
            self.ready.sort()
            return
        job = self.jobs[index]
        self.outstanding -= 1
        on_failure(index, JobFailure(
            index=index, label=job.label, workload=job.workload.name,
            key=None, error_type=error_type, message=message,
            attempts=attempt, duration_s=total, traceback=tb))

    # -- main loop --------------------------------------------------------
    def run(self, on_success: Callable[[int, int, RunResult], None],
            on_failure: Callable[[int, JobFailure], None],
            count_attempt: Callable[[], None]) -> None:
        from multiprocessing.connection import wait as connection_wait

        pool = [_WorkerHandle(self.ctx) for _ in range(self.workers)]
        try:
            while self.outstanding > 0:
                now = time.monotonic()
                # Assign eligible jobs to idle (live) workers.
                for worker in pool:
                    if not self.ready or self.ready[0][0] > now:
                        break
                    if worker.busy:
                        continue
                    if not worker.process.is_alive():
                        worker.kill()
                        pool[pool.index(worker)] = worker = \
                            _WorkerHandle(self.ctx)
                    _, index, attempt = self.ready.pop(0)
                    count_attempt()
                    worker.assign(index, attempt, self.jobs[index],
                                  self.timeout)

                busy = [w for w in pool if w.busy]
                if not busy:
                    if self.ready:      # backoff window: sleep until eligible
                        time.sleep(max(self.MIN_TICK_S,
                                       min(self.ready[0][0] - now,
                                           self.MAX_TICK_S)))
                        continue
                    break               # nothing running, nothing queued
                tick = self.MAX_TICK_S
                deadlines = [w.deadline for w in busy
                             if w.deadline is not None]
                if deadlines:
                    tick = min(tick, max(self.MIN_TICK_S,
                                         min(deadlines) - now))
                readable = connection_wait([w.conn for w in busy],
                                           timeout=tick)
                for conn in readable:
                    worker = next(w for w in busy if w.conn is conn)
                    index, attempt = worker.index, worker.attempt
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-job (segfault/OOM-kill/os._exit):
                        # replace it and charge the job one attempt.
                        duration = time.monotonic() - worker.started
                        worker.kill()
                        pool[pool.index(worker)] = _WorkerHandle(self.ctx)
                        self._requeue_or_fail(
                            index, attempt, "WorkerDeath",
                            f"worker process died (exit code "
                            f"{worker.process.exitcode})", None, duration,
                            on_failure)
                        continue
                    worker.release()
                    msg_index, msg_attempt, ok, payload, duration = message
                    if ok:
                        self.outstanding -= 1
                        on_success(msg_index, msg_attempt, payload)
                    else:
                        error_type, error_message, tb = payload
                        self._requeue_or_fail(msg_index, msg_attempt,
                                              error_type, error_message, tb,
                                              duration, on_failure)
                # Enforce per-job wall-clock deadlines.
                if self.timeout is not None:
                    now = time.monotonic()
                    for slot, worker in enumerate(pool):
                        if (worker.busy and worker.deadline is not None
                                and now > worker.deadline
                                and worker.conn not in
                                [c for c in readable]):
                            index, attempt = worker.index, worker.attempt
                            duration = now - worker.started
                            worker.kill()
                            pool[slot] = _WorkerHandle(self.ctx)
                            self._requeue_or_fail(
                                index, attempt, "Timeout",
                                f"job exceeded the {self.timeout:.3g}s "
                                f"wall-clock timeout and was killed", None,
                                duration, on_failure)
        finally:
            for worker in pool:
                if worker.busy or not worker.process.is_alive():
                    worker.kill()
                else:
                    worker.shutdown()


# ---------------------------------------------------------------------------
# submission
# ---------------------------------------------------------------------------
@dataclass
class Submission:
    """Dedup'd description of a batch of jobs about to execute.

    The store-dedup pass that used to live inline in :func:`run_jobs`,
    extracted so other submitters — the serve layer's job queue, ad-hoc
    tools — share the exact same semantics: one batched
    :meth:`~repro.sim.store.ResultStore.probe_many` round-trip, corrupt
    and stale cells treated as misses (the store self-heals).
    """

    jobs: List[SweepJob]
    #: ``cache_key()`` per job.
    keys: List[str]
    #: Store hits, by job index.
    cached: Dict[int, RunResult] = field(default_factory=dict)
    #: Indices that still need simulating, in submission order.
    pending: List[int] = field(default_factory=list)


def prepare_submission(jobs: Sequence[SweepJob],
                       store: Optional[object] = None) -> Submission:
    """Probe ``store`` for every job and split hits from pending work."""
    jobs = list(jobs)
    submission = Submission(jobs=jobs,
                            keys=[job.cache_key() for job in jobs])
    if store is not None and jobs:
        # One batched dedup probe instead of a read per job: a few
        # indexed queries, so a warm paper-scale sweep starts in
        # milliseconds.
        probes = store.probe_many(submission.keys)
        for i, key in enumerate(submission.keys):
            status, hit = probes[key]
            if status == CELL_OK:
                submission.cached[i] = hit
            else:
                submission.pending.append(i)
    else:
        submission.pending = list(range(len(jobs)))
    return submission


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def run_jobs(jobs: Sequence[SweepJob], *, workers: int = 1,
             store: Optional[object] = None,
             max_attempts: Optional[int] = None,
             timeout: Optional[float] = None,
             backoff: Optional[float] = None,
             strict: bool = False) -> SweepReport:
    """Execute ``jobs`` under the fault-tolerant supervisor.

    Results come back in job order regardless of completion order.  When a
    :class:`~repro.sim.store.ResultStore` is given, jobs whose key is
    already present are served from disk (corrupt cells are detected,
    ignored and overwritten — the store self-heals) and only the missing
    cells are simulated; fresh results are written back *with their job
    description* as they complete, so an interrupted sweep can resume
    where it stopped and ``fsck --repair`` can re-simulate damaged cells.

    Failure semantics:

    * each job gets ``max_attempts`` tries (``REPRO_SWEEP_MAX_ATTEMPTS``,
      default 3) with exponential backoff (``backoff * 2**(attempt-1)``
      seconds, ``REPRO_SWEEP_BACKOFF``, default 0.5);
    * with ``workers > 1`` a per-attempt wall-clock ``timeout``
      (``REPRO_SWEEP_TIMEOUT``, 0 = disabled) kills hung workers; dead
      workers are respawned and their in-flight job requeued.  The serial
      path retries exceptions but cannot kill a hung attempt (it has no
      process boundary) — use workers for timeout enforcement;
    * a job that exhausts its attempts becomes a :class:`JobFailure` in
      ``SweepReport.failures`` and leaves ``None`` at its result index —
      unless ``strict=True``, which raises :class:`SweepExecutionError`
      on the first exhausted job (today's fail-fast CI behaviour).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if max_attempts is None:
        max_attempts = default_max_attempts()
    elif max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    timeout = default_timeout() if timeout is None else (
        timeout if timeout > 0 else None)
    backoff = default_backoff() if backoff is None else max(0.0, backoff)

    submission = prepare_submission(jobs, store)
    jobs = submission.jobs
    results: List[Optional[RunResult]] = [None] * len(jobs)
    keys = submission.keys
    failures: Dict[int, JobFailure] = {}
    attempts = 0

    for i, hit in submission.cached.items():
        results[i] = hit
    cached = len(submission.cached)
    pending = submission.pending

    parallel: List[int] = []
    serial: List[int] = []
    # A single pending job normally runs in-process (no pool overhead),
    # but when a timeout is configured it still goes through the
    # supervisor: only a process boundary can kill a hung attempt.
    if workers > 1 and (len(pending) > 1
                        or (pending and timeout is not None)):
        parallel = pending
    else:
        serial = pending

    fault_plan = faults.active_plan()

    # Results are persisted as they complete (not after the whole batch), so
    # an interrupted sweep keeps every finished cell and a re-run resumes
    # from the missing ones.
    def finish(i: int, attempt: int, result: RunResult) -> None:
        results[i] = result
        if store is not None:
            store.put(keys[i], result, job=jobs[i].spec_dict())
            if fault_plan and faults.should_corrupt(i, attempt):
                faults.corrupt_store_cell(store, keys[i])

    def fail(i: int, failure: JobFailure) -> None:
        failure.key = keys[i]
        failures[i] = failure
        if strict:
            raise SweepExecutionError([failure])

    def count_attempt() -> None:
        nonlocal attempts
        attempts += 1

    if parallel:
        _preload([jobs[i] for i in parallel])
        supervisor = _Supervisor(jobs, parallel, workers,
                                 max_attempts=max_attempts, timeout=timeout,
                                 backoff=backoff)
        supervisor.run(finish, fail, count_attempt)
    for i in serial:
        # Accumulated across attempts so JobFailure.duration_s reports the
        # job's total wall-clock, matching the parallel supervisor.
        spent = 0.0
        for attempt in range(1, max_attempts + 1):
            count_attempt()
            started = time.monotonic()
            try:
                result = _run_attempt(i, attempt, jobs[i])
            except Exception as exc:
                spent += time.monotonic() - started
                if attempt < max_attempts:
                    if backoff > 0:
                        time.sleep(backoff * (2 ** (attempt - 1)))
                    continue
                fail(i, JobFailure(
                    index=i, label=jobs[i].label,
                    workload=jobs[i].workload.name, key=keys[i],
                    error_type=type(exc).__name__, message=str(exc),
                    attempts=attempt, duration_s=spent,
                    traceback=traceback_module.format_exc()))
                break
            else:
                finish(i, attempt, result)
                break

    # A job that is neither finished nor recorded as failed means the
    # engine itself lost track — never return silently incomplete results
    # (the previous ``assert`` here vanished under ``python -O``).
    lost = [i for i, r in enumerate(results)
            if r is None and i not in failures]
    if lost:
        raise SweepExecutionError(
            [], message=f"sweep engine lost track of job(s) {lost} "
                        f"(no result and no failure recorded)")
    simulated = len(pending) - len(failures)
    return SweepReport(results=list(results), simulated=simulated,
                       cached=cached, workers=workers,
                       failures=[failures[i] for i in sorted(failures)],
                       attempts=attempts)
