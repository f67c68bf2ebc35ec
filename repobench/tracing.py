"""Outside-in tracing: wrappers around the public entry points of each
layer, installed from the benchmark's own files (``src/`` is untouched).

Every wrapped call becomes a frame on a per-thread stack.  On exit its
duration is added to the layer's inclusive time and, minus what its child
frames covered, to its self time.  Calls at layer boundaries that happen a
bounded number of times (a cell, a sweep job, a store call, an HTTP
request) are also kept as spans ``(id, parent, name, start, end, thread)``
in memory and written out at the end; per-reference calls (a design step,
a DRAM kernel, a controller access) are aggregated only, because one span
per reference would cost more memory than the run itself.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: Wrapped calls kept only as aggregates (one per simulated reference).
HOT = frozenset({"design.step", "memory.ctrl_access",
                 "memory.transfer_block", "memory.kernel_line",
                 "memory.kernel_block"})


class Tracer:
    """Per-thread frame stacks, per-name aggregates and the span list."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Extra counts measured at the same boundaries (select queries,
        #: response-cache hits, ...).
        self.counts: Counter = Counter()
        #: Per-name duration samples, for the per-family latency medians.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.spans: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        frame = [name, 0.0, 0.0, next(self._ids),
                 stack[-1][3] if stack else 0]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list, sample: Optional[str] = None) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        name, start, children, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.inclusive[name] += duration
            self.self_time[name] += duration - children
            self.calls[name] += 1
            if sample is not None:
                self.samples[sample].append(duration)
            if name not in HOT:
                self.spans.append((span_id, parent, name, start, end,
                                   threading.get_ident()))

    @contextmanager
    def span(self, name: str, sample: Optional[str] = None) -> Iterator[None]:
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame, sample)

    def wrap(self, name: str, fn: Callable,
             result_hook: Optional[Callable] = None) -> Callable:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            return result_hook(result) if result_hook else result
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- output ---------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        with open(path, "w") as out:
            for span_id, parent, name, start, end, thread in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent,
                                      "name": name, "start": start,
                                      "end": end, "thread": thread}) + "\n")

    def self_time_table(self) -> str:
        lines = [f"{'layer call':28s} {'calls':>10s} {'incl s':>10s} "
                 f"{'self s':>10s}"]
        for name in sorted((n for n in self.calls if self.calls[n]),
                           key=lambda n: -self.self_time[n]):
            lines.append(f"{name:28s} {self.calls[name]:>10d} "
                         f"{self.inclusive[name]:>10.4f} "
                         f"{self.self_time[name]:>10.4f}")
        return "\n".join(lines)


class Patches:
    """Attribute patches that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, value = self._undo.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def _design_classes() -> list:
    from repro.baselines import DESIGN_FACTORIES
    from repro.core.hybrid2 import Hybrid2System
    classes = [f for f in DESIGN_FACTORIES.values() if isinstance(f, type)]
    return classes + [Hybrid2System]


def _serve_family(method: str, target: str, headers) -> str:
    path = target.partition("?")[0]
    if path == "/v1/health":
        return "health"
    if path == "/v1/cells":
        return "cells_list"
    if path.startswith("/v1/cells/"):
        revalidate = any(k.lower() == "if-none-match" for k in (headers or {}))
        return "cell_304" if revalidate else "cell"
    if path.startswith("/v1/charts/"):
        return "chart"
    if path in ("/v1/designs", "/v1/workloads", "/v1/benches"):
        return "registry"
    if path == "/v1/jobs" and method == "POST":
        return "jobs_post"
    if path.endswith("/events"):
        return "jobs_events"
    return "other"


@contextmanager
def installed(tracer: Tracer) -> Iterator[Dict[str, list]]:
    """Install every wrapper for the duration of the block.

    Yields a dict collecting what the wrappers observe beyond timing:
    ``reports`` (each ``run_jobs`` :class:`SweepReport`) and
    ``queue_waits`` (seconds from ``JobQueue.submit`` returning to the
    job's ``run_jobs`` call).
    """
    import repro.memory.kernels as kernels
    import repro.serve.jobqueue as jobqueue
    import repro.sim.runner as runner
    import repro.sim.simulator as simulator
    import repro.sim.store as store
    import repro.sim.sweep as sweep
    from repro.memory.controller import MemoryController
    from repro.serve.app import ServeApp
    from repro.serve.respcache import ResponseCache
    from repro.workloads.tracefile import TraceFileWorkload

    observed: Dict[str, list] = {"reports": [], "queue_waits": []}
    submitted: Dict[str, float] = {}
    patches = Patches()
    wrap = tracer.wrap

    # repro.workloads, as bound in the driver module.
    patches.set(simulator, "generate_multiprogrammed",
                wrap("workloads.generate",
                     simulator.generate_multiprogrammed))
    # repro.sim.simulator: the driver, wherever it is called from.
    traced_simulate = wrap("driver.simulate", simulator.simulate)
    patches.set(simulator, "simulate", traced_simulate)
    patches.set(sweep, "simulate", traced_simulate)

    # Designs: fast_path precompute, and the step closure it returns.
    def traced_step(step):
        if step is None:
            return None
        return wrap("design.step", step)
    seen = set()
    for cls in _design_classes():
        owner = next(k for k in cls.__mro__ if "fast_path" in k.__dict__)
        if owner not in seen:
            seen.add(owner)
            patches.set(owner, "fast_path",
                        wrap("design.fast_path", owner.__dict__["fast_path"],
                             traced_step))

    # repro.memory: the controller chain and the inlined kernels.
    patches.set(MemoryController, "access",
                wrap("memory.ctrl_access", MemoryController.access))
    patches.set(MemoryController, "transfer_block",
                wrap("memory.transfer_block",
                     MemoryController.transfer_block))
    original_make = kernels.make_kernels

    def traced_make_kernels(controller):
        line, block = original_make(controller)
        return (wrap("memory.kernel_line", line),
                wrap("memory.kernel_block", block))
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "make_kernels", None) is original_make):
            patches.set(module, "make_kernels", traced_make_kernels)

    # repro.trace, via the trace-file workload handle.
    patches.set(TraceFileWorkload, "load_traces",
                wrap("trace.load", TraceFileWorkload.load_traces))

    # repro.sim.sweep and repro.sim.store.
    traced_prepare = wrap("sweep.prepare", sweep.prepare_submission)
    patches.set(sweep, "prepare_submission", traced_prepare)
    patches.set(jobqueue, "prepare_submission", traced_prepare)
    patches.set(sweep.SweepJob, "run",
                wrap("sweep.job_run", sweep.SweepJob.run))
    original_run_jobs = sweep.run_jobs

    def traced_run_jobs(jobs, **kwargs):
        now = time.perf_counter()
        for job in jobs if submitted else ():
            posted = submitted.pop(job.cache_key() or "", None)
            if posted is not None:
                observed["queue_waits"].append(now - posted)
        with tracer.span("sweep.run_jobs"):
            report = original_run_jobs(jobs, **kwargs)
        observed["reports"].append(report)
        return report
    patches.set(runner, "run_jobs", traced_run_jobs)
    patches.set(jobqueue, "run_jobs", traced_run_jobs)
    patches.set(store, "model_fingerprint",
                wrap("store.fingerprint", store.model_fingerprint))
    for method in ("probe_many", "put", "stats_dict"):
        patches.set(store.ResultStore, method,
                    wrap(f"store.{method}",
                         getattr(store.ResultStore, method)))
    original_keys = store.ResultStore.keys

    def traced_keys(self):
        # Materialised inside the span so the scan is what gets timed.
        with tracer.span("store.keys"):
            keys = list(original_keys(self))
        return iter(keys)
    patches.set(store.ResultStore, "keys", traced_keys)
    for method in ("fetch_many", "all_keys"):
        original = getattr(store.SqliteBackend, method)

        def counted(self, *args, _original=original, **kwargs):
            before = self.select_queries
            try:
                return _original(self, *args, **kwargs)
            finally:
                tracer.count("store.select_queries",
                             self.select_queries - before)
        patches.set(store.SqliteBackend, method, counted)

    # repro.serve: response cache, request handling, job submission.
    original_get = ResponseCache.get

    def traced_cache_get(self, path):
        with tracer.span("serve.respcache_get"):
            entry = original_get(self, path)
        tracer.count("serve.respcache_hits" if entry is not None
                     else "serve.respcache_misses")
        return entry
    patches.set(ResponseCache, "get", traced_cache_get)
    patches.set(ResponseCache, "put",
                wrap("serve.respcache_put", ResponseCache.put))
    original_handle = ServeApp.handle

    def traced_handle(self, method, target, headers=None, body=b""):
        family = _serve_family(method, target, headers)
        with tracer.span("serve.handle", sample=f"serve.{family}"):
            return original_handle(self, method, target, headers, body)
    patches.set(ServeApp, "handle", traced_handle)
    original_submit = jobqueue.JobQueue.submit

    def traced_submit(self, payload):
        with tracer.span("serve.jobs_submit"):
            record, deduped = original_submit(self, payload)
        if record.key is not None and not deduped:
            submitted[record.key] = time.perf_counter()
        return record, deduped
    patches.set(jobqueue.JobQueue, "submit", traced_submit)

    try:
        yield observed
    finally:
        patches.undo()


#: ``(name, unit, better)`` of every per-layer metric a traced run reports.
SERVE_FAMILIES = ("health", "cells_list", "cell", "cell_304", "chart",
                  "registry", "jobs_post", "jobs_events")
PER_LAYER = [
    ("workloads.generate_s", "s", "lower"),
    ("design.fast_path_s", "s", "lower"),
    ("design.step_self_s", "s", "lower"),
    ("driver.self_s", "s", "lower"),
    ("memory.transfer_block_calls", "count", "lower"),
    ("memory.transfer_block_s", "s", "lower"),
    ("memory.ctrl_access_per_kref", "1/kref", "lower"),
    ("memory.kernel_line_per_kref", "1/kref", "lower"),
    ("memory.kernel_block_per_kref", "1/kref", "lower"),
    ("trace.load_s", "s", "lower"),
    ("sweep.import_s", "s", "lower"),
    ("store.fingerprint_s", "s", "lower"),
    ("sweep.prepare_s", "s", "lower"),
    ("store.probe_many_s", "s", "lower"),
    ("store.select_queries", "count", "lower"),
    ("store.put_calls", "count", "lower"),
    ("store.put_s", "s", "lower"),
    ("sweep.job_run_s", "s", "lower"),
    ("sweep.orchestration_self_s", "s", "lower"),
    ("sweep.attempts_per_job", "attempts/job", "lower"),
    ("serve.health_scan_s", "s", "lower"),
    ("serve.cells_list_s", "s", "lower"),
    ("serve.respcache_hit_ratio", "ratio", "higher"),
    ("serve.queue_wait_s", "s", "lower"),
    *((f"serve.{family}.p50_ms", "ms", "lower") for family in SERVE_FAMILIES),
    ("serve.generator_late_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def require_reached(outcome, metrics: Dict[str, tuple], names) -> None:
    """Fail ``outcome`` for each metric in ``names`` that reads 0.

    A layer a workload is meant to reach reads 0 only if its wrapper no
    longer sits on the path (say a name in ``src/`` was rebound), and that
    must not pass as a layer that costs nothing.
    """
    for name in names:
        if not metrics[name][0] > 0:
            outcome.fail(f"the traced run never reached {name}")


def layer_metrics(tracer: Tracer, observed: Dict[str, list],
                  extra: Dict[str, float]) -> Dict[str, tuple]:
    """Every :data:`PER_LAYER` metric from one traced unit of work.

    ``extra`` supplies what is measured outside the wrappers
    (``sweep.import_s``, ``serve.generator_late_ms``,
    ``trace.overhead_ratio``).  A layer the workload never reaches
    reports 0.  Per-kref counts are per 1000 references driven through a
    design step (warm-up included).
    """
    inc, own, calls = tracer.inclusive, tracer.self_time, tracer.calls
    krefs = calls["design.step"] / 1000.0

    def per_kref(name: str) -> float:
        return calls[name] / krefs if krefs else 0.0

    reports = observed["reports"]
    attempts = sum(r.attempts for r in reports)
    ran = sum(r.simulated + r.failed for r in reports)
    hits = tracer.counts["serve.respcache_hits"]
    lookups = hits + tracer.counts["serve.respcache_misses"]
    waits = sorted(observed["queue_waits"])
    values = {
        "workloads.generate_s": inc["workloads.generate"],
        "design.fast_path_s": inc["design.fast_path"],
        "design.step_self_s": own["design.step"],
        "driver.self_s": own["driver.simulate"],
        "memory.transfer_block_calls": calls["memory.transfer_block"],
        "memory.transfer_block_s": inc["memory.transfer_block"],
        "memory.ctrl_access_per_kref": per_kref("memory.ctrl_access"),
        "memory.kernel_line_per_kref": per_kref("memory.kernel_line"),
        "memory.kernel_block_per_kref": per_kref("memory.kernel_block"),
        "trace.load_s": inc["trace.load"],
        "store.fingerprint_s": inc["store.fingerprint"],
        "sweep.prepare_s": inc["sweep.prepare"],
        "store.probe_many_s": inc["store.probe_many"],
        "store.select_queries": tracer.counts["store.select_queries"],
        "store.put_calls": calls["store.put"],
        "store.put_s": inc["store.put"],
        "sweep.job_run_s": inc["sweep.job_run"],
        "sweep.orchestration_self_s": own["sweep.run_jobs"],
        "sweep.attempts_per_job": attempts / ran if ran else 0.0,
        "serve.health_scan_s": inc["store.stats_dict"],
        "serve.cells_list_s": inc["store.keys"],
        "serve.respcache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.queue_wait_s": waits[len(waits) // 2] if waits else 0.0,
    }
    for family in SERVE_FAMILIES:
        samples = sorted(tracer.samples[f"serve.{family}"])
        values[f"serve.{family}.p50_ms"] = (
            samples[len(samples) // 2] * 1000.0 if samples else 0.0)
    values.update(extra)
    return {name: (values.get(name, 0.0), unit)
            for name, unit, _ in PER_LAYER}
