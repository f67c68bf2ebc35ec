"""``serve-mixed``: a ``python -m repro serve`` subprocess over a store
pre-filled with real cells, driven over HTTP in two phases.

* **Open loop.**  Seeded Poisson arrivals of the read mix of an assumed
  dashboard visit (registry listings, a page of ``/v1/cells``, cell
  reads and their charts, ETag re-requests), ``/v1/health`` at a
  liveness prober's period, and Poisson ``POST /v1/jobs`` of cells not
  yet in the store, each followed to completion by long-poll; ``NPROC``
  client threads take the arrivals in due order, one connection per
  request.  Latency is timed from each request's due time.
* **Closed loop.**  ``NPROC`` keep-alive connections issue the read path
  (cells, re-requests, charts, registry) back to back, for throughput.

The traced run replays the open-loop schedule in-process (``ServeApp``
behind ``make_server`` in a thread) on one client thread, so the order of
every store and cache operation, and therefore every op count, is fixed
by the seed.
"""

from __future__ import annotations

import bisect
import contextlib
import http.client
import json
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import common
from .common import Outcome
from .tracing import Tracer, installed, layer_metrics, require_reached

#: Fixture grid: cheap designs over many seeds, the migrating ones (whose
#: construction dominates a small cell) over one seed.
CHEAP_DESIGNS = ("BASELINE", "TAGLESS", "DFC")
COSTLY_DESIGNS = ("MPOD", "CHA", "LGM", "HYBRID2")
FIXTURE_SEEDS = 10
FIXTURE_REFS = 256

# The traffic.  No recorded traffic of this service exists, so the mix
# follows from one assumed visit to a results dashboard over the served
# sweep (repobench/README.md argues each number): the three registry
# listings that fill its menus, one page of the cell listing, five cells
# viewed (each its JSON and its chart) and two returns to a cell seen
# earlier in the visit, which the browser revalidates by ETag.
VISIT = (("registry", 3), ("cells_list", 1), ("cell", 5), ("chart", 5),
         ("cell_304", 2))
#: Visits start as a Poisson process (independent users).  One a second
#: keeps the server about a quarter busy on the reference host.
VISIT_RATE = 1.0
READ_RATE = VISIT_RATE * sum(n for _, n in VISIT)
#: Half the visits end by asking for a cell the store lacks: a job of the
#: stored cells' size, POSTed and followed to completion.
JOB_RATE = VISIT_RATE / 2
JOB_REFS = FIXTURE_REFS
#: Seed of the arrival times and families (see :func:`schedule`).
ARRIVAL_SEED = 0
#: One liveness prober at Kubernetes' default ``periodSeconds``.
HEALTH_PERIOD_S = 10.0
#: Cells per listing page; a return goes to one of the visit's cells.
PAGE = 50
RECENT = dict(VISIT)["cell"]
#: The closed loop issues the visit's per-cell reads back to back; the
#: listing's scan is left to the open loop, where it arrives at its rate.
CLOSED_MIX = tuple(item for item in VISIT if item[0] != "cells_list")
REGISTRY = ("/v1/designs", "/v1/workloads", "/v1/benches")
OPEN_SHARE = 0.8
#: The open-loop tail percentile printed beside p99: the highest whole
#: percentile with at least ten of the ~260 timed requests beyond it.
TAIL = 0.96
#: A calibration (10-20 ms) runs at most this often, and only when no
#: request is in flight and none is due within the window.
CALIBRATION_EVERY_S = 0.25
CALIBRATION_WINDOW_S = 0.03
TRACE_SECONDS = 8.0
#: Server spawns whose median is ``setup_s``.
SPAWNS = 9
#: Latency charged to a failed or refused request.
FAILED_MS = 30_000.0

TINY = {"seeds": 2, "workloads": 4, "trace_seconds": 2.0}

URL_LINE = re.compile(r"http://[\d.]+:(\d+)")


# ---------------------------------------------------------------------------
# fixture: a store of real cells
# ---------------------------------------------------------------------------
def _fixture_jobs(seed: int, tiny: bool):
    from repro.sim.sweep import DesignRef, SweepJob
    from repro.workloads.catalog import WORKLOADS

    config = common.bench_config()
    workloads = WORKLOADS[:TINY["workloads"]] if tiny else WORKLOADS
    seeds = TINY["seeds"] if tiny else FIXTURE_SEEDS
    jobs = []
    for spec in workloads:
        for i in range(seeds):
            for design in CHEAP_DESIGNS + (COSTLY_DESIGNS if i == 0 else ()):
                jobs.append(SweepJob(DesignRef.of(design), spec, config,
                                     FIXTURE_REFS, seed * 1000 + i))
    return jobs


def store_fixture(seed: int, tiny: bool) -> Tuple[Path, Dict[str, str]]:
    """The pre-filled store and its ``key -> digest`` manifest, built once
    per (seed, model fingerprint, size)."""
    from repro.sim.store import ResultStore, model_fingerprint
    from repro.sim.sweep import run_jobs

    jobs = _fixture_jobs(seed, tiny)
    folder = (common.WORK / "fixtures" / model_fingerprint()
              / f"seed-{seed}" / f"serve-{len(jobs)}x{FIXTURE_REFS}")
    manifest = folder / "manifest.json"
    if not manifest.is_file():
        partial = common.fresh_dir(folder.with_name(folder.name + ".partial"))
        report = run_jobs(jobs, workers=common.NPROC, strict=True)
        store = ResultStore(f"sqlite:{partial / 'store'}")
        keys = [job.cache_key() for job in jobs]
        store.put_many([(key, result, job.spec_dict()) for key, result, job
                        in zip(keys, report.results, jobs)])
        store.backend.close()
        (partial / "manifest.json").write_text(json.dumps({
            key: common.result_digest(result.as_dict())
            for key, result in zip(keys, report.results)}))
        if folder.exists():
            shutil.rmtree(folder)
        partial.replace(folder)
    return folder / "store", json.loads(manifest.read_text())


def _corrupt(store_dir: Path, key: str) -> None:
    """Rewrite ``key`` with a wrong result under a valid checksum, so the
    server serves it as a healthy ``200`` (self-test only)."""
    from repro.sim.store import ResultStore

    store = ResultStore(f"sqlite:{store_dir}")
    try:
        result = store.get(key)
        result.cycles += 1.0
        store.put(key, result, job=store.job_spec(key))
    finally:
        store.backend.close()


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------
def _pick(rng: random.Random, mix) -> str:
    return rng.choices([k for k, _ in mix], [w for _, w in mix])[0]


def _read_args(rng: random.Random, kind: str, keys: List[str]):
    if kind in ("cell", "chart"):
        return rng.choice(keys)
    if kind == "registry":
        return rng.choice(REGISTRY)
    if kind == "cells_list":
        return rng.randrange(0, len(keys), PAGE)
    return rng.random()                 # cell_304: which recent cell


def schedule(seed: int, keys: List[str], duration: float):
    """Open-loop arrivals: ``(due_s, kind, arg)`` sorted by due time; jobs
    carry ``(design, workload, seed)``.

    When each request arrives, of which family, and the design of each
    job (which sets its cost) come from one fixed stream, the same for
    every seed; ``seed`` picks what each request asks for (cells, pages,
    the workload and seed of each job).  With about 16 whole-store listings a
    run, the Poisson draw alone moved the open-loop latencies by up to 2x
    between seeds, so a regression could not be told from a lucky draw.
    """
    from repro.baselines import DESIGN_FACTORIES
    from repro.workloads.catalog import WORKLOADS

    arrivals = random.Random(ARRIVAL_SEED)
    rng = random.Random(seed)
    items = []
    due = arrivals.expovariate(READ_RATE)
    while due < duration:
        kind = _pick(arrivals, VISIT)
        items.append((due, kind, _read_args(rng, kind, keys)))
        due += arrivals.expovariate(READ_RATE)
    probe = 0.0
    while probe < duration:
        items.append((probe, "health", None))
        probe += HEALTH_PERIOD_S
    due = arrivals.expovariate(JOB_RATE)
    designs = sorted(DESIGN_FACTORIES)
    # Job seeds stay clear of the fixture's (seed * 1000 + i, i < 500).
    job_seed = seed * 1000 + 500
    while due < duration:
        items.append((due, "job", (arrivals.choice(designs),
                                   rng.choice(WORKLOADS).name, job_seed)))
        job_seed += 1
        due += arrivals.expovariate(JOB_RATE)
    return sorted(items, key=lambda item: item[0])


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------
class Client:
    """One HTTP client: a keep-alive connection, or a fresh connection per
    request (``keep_alive=False``); reconnects after a transport error."""

    def __init__(self, port: int, keep_alive: bool = True) -> None:
        self.port = port
        self.keep_alive = keep_alive
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: bytes = b"",
                headers: Optional[Dict[str, str]] = None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=60)
        try:
            self.conn.request(method, path, body=body or None,
                              headers=headers or {})
            response = self.conn.getresponse()
            answer = (response.status, response.getheader("ETag"),
                      response.getheader("Content-Type", ""),
                      response.read())
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if not self.keep_alive:
            self.close()
        return answer

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Load:
    """Issues the mix, records latencies, keeps bodies for checking."""

    def __init__(self, outcome: Outcome) -> None:
        self.outcome = outcome
        self.lock = threading.Lock()
        #: ``(perf_counter, seconds)`` of the :func:`common.calibrate`
        #: passes taken while the open loop idles.
        self.speed: List[Tuple[float, float]] = []
        self.next_calibration = 0.0
        #: ``(family, due, ms)`` of each open-loop request, timed from its
        #: due time (a ``perf_counter`` value).
        self.timed: List[Tuple[str, float, float]] = []
        self.late_ms: List[float] = []
        self.family_ms: Dict[str, List[float]] = {}
        self.recent: List[Tuple[str, str]] = []     # (key, etag)
        #: (kind, key or path, body) of responses checked after the run.
        self.bodies: List[Tuple[str, str, bytes]] = []
        self.jobs: List[dict] = []

    def op(self, ok: bool, error: str) -> None:
        with self.lock:
            self.outcome.op(ok, error)

    def read(self, client: Client, kind: str, arg,
             due: Optional[float] = None) -> bool:
        """One read-path request; ``due`` (perf_counter) times it from
        its due time and records how late it was sent."""
        headers = {}
        if kind == "cell_304":
            with self.lock:
                if not self.recent:
                    return False        # nothing fetched yet to revalidate
                arg, etag = self.recent[int(arg * len(self.recent))]
            headers["If-None-Match"] = etag
        path = {"cell": f"/v1/cells/{arg}", "cell_304": f"/v1/cells/{arg}",
                "chart": f"/v1/charts/{arg}.svg", "registry": arg,
                "health": "/v1/health"}.get(kind)
        if kind == "cells_list":
            path = f"/v1/cells?offset={arg}&limit={PAGE}"
        sent = time.perf_counter()
        try:
            status, etag, ctype, body = client.request("GET", path,
                                                       headers=headers)
            error = ""
        except (OSError, http.client.HTTPException) as exc:
            status, etag, ctype, body = 0, None, "", b""
            error = f"{type(exc).__name__}: {exc}"
        done = time.perf_counter()
        expected = (200, 304) if kind == "cell_304" else (200,)
        ok = status in expected and (kind != "chart"
                                     or ctype.startswith("image/svg"))
        self._record(kind, due, sent, done, ok)
        self.op(ok, error or f"GET {path} answered {status}")
        if ok and status == 200:
            with self.lock:
                if kind in ("cell", "cell_304"):
                    self.recent = (self.recent + [(arg, etag)])[-RECENT:]
                    self.bodies.append(("cell", arg, body))
                elif kind in ("health", "registry", "cells_list"):
                    self.bodies.append((kind, path, body))
        return ok

    def job(self, client: Client, spec, due: Optional[float] = None) -> None:
        """POST one job, then long-poll its events until it is done."""
        design, workload, seed = spec
        payload = dict(common.BENCH_CONFIG, design=design,
                       workload=workload, refs=JOB_REFS, seed=seed)
        sent = time.perf_counter()
        try:
            status, _, _, body = client.request(
                "POST", "/v1/jobs", json.dumps(payload).encode(),
                {"Content-Type": "application/json"})
            record = json.loads(body)["job"] if status == 202 else None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            status, record = f"{type(exc).__name__}: {exc}", None
        self._record("jobs_post", due, sent, time.perf_counter(),
                     record is not None)
        self.op(record is not None, f"POST {payload} answered {status}")
        if record is None:
            return
        after, state = 0, record["status"]
        while state not in ("done", "failed", "cached"):
            start = time.perf_counter()
            try:
                status, _, _, body = client.request(
                    "GET", f"/v1/jobs/{record['id']}/events?after={after}"
                           f"&wait=5")
                events = json.loads(body) if status == 200 else None
            except (OSError, http.client.HTTPException, ValueError):
                events = None
            self._record("jobs_events", None, start, time.perf_counter(),
                         events is not None)
            self.op(events is not None, f"events of {record['id']} failed")
            if events is None:
                return
            after, state = events["next"], events["status"]
        turnaround = time.perf_counter() - sent
        self.op(state == "done", f"job {record['id']} ended {state}")
        with self.lock:
            self.jobs.append({"spec": spec, "key": record["key"],
                              "state": state, "turnaround_s": turnaround})

    def _record(self, family: str, due: Optional[float], sent: float,
                done: float, ok: bool) -> None:
        with self.lock:
            self.family_ms.setdefault(family, []).append(
                (done - sent) * 1000.0)
            if due is not None:
                latency = (done - due) * 1000.0 if ok else FAILED_MS
                self.late_ms.append(max(0.0, sent - due) * 1000.0)
                self.timed.append((family, due, latency))


def _wait_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def open_loop(load: Load, port: int, items, workers: int) -> None:
    """Replay ``items`` against their due times on ``workers`` client
    threads (the caller's included) that take the items in due order.

    Arrivals model independent users, so each request opens its own
    connection; a job item is POSTed and followed to completion by the
    thread that took it.  With one worker the order of every request, and
    so every store and cache operation, is fixed by the schedule.
    """
    start = time.perf_counter()
    pending = iter(items)
    lock = threading.Lock()
    #: Due times of the items taken and not yet finished: those in flight
    #: and those a thread waits to send.  Later items are not taken yet.
    active: List[float] = []

    def worker() -> None:
        client = Client(port, keep_alive=False)
        while True:
            with lock:
                item = next(pending, None)
                if item is None:
                    return
                due, kind, arg = item
                active.append(start + due)
                now = time.perf_counter()
                calibrate = (min(active) - now > CALIBRATION_WINDOW_S
                             and now >= load.next_calibration)
                if calibrate:
                    load.next_calibration = now + CALIBRATION_EVERY_S
            try:
                if calibrate:
                    load.speed.append((now, common.calibrate()))
                _wait_until(start + due)
                if kind == "job":
                    load.job(client, arg, start + due)
                else:
                    load.read(client, kind, arg, start + due)
            finally:
                with lock:
                    active.remove(start + due)
    threads = [threading.Thread(target=worker, name=f"bench-open-{i}")
               for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        worker()
    finally:
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                load.outcome.fail("an open-loop thread did not finish")


def closed_loop(load: Load, port: int, seed: int, keys: List[str],
                seconds: float) -> float:
    """``NPROC`` connections back to back; completed requests per second."""
    completed = [0] * common.NPROC
    stop = time.perf_counter() + seconds

    def worker(index: int) -> None:
        rng = random.Random(seed * 7919 + index)
        client = Client(port)
        try:
            while time.perf_counter() < stop:
                kind = _pick(rng, CLOSED_MIX)
                if load.read(client, kind, _read_args(rng, kind, keys)):
                    completed[index] += 1
        finally:
            client.close()
    started = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(i,),
                                name=f"bench-closed-{i}")
               for i in range(common.NPROC)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    return sum(completed) / (time.perf_counter() - started)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def check(load: Load, port: int, manifest: Dict[str, str],
          seed: int) -> Dict[str, str]:
    """Check every kept body and every job's cell; returns the digests of
    the job cells, which re-simulation in-process must reproduce."""
    from repro.params import make_config
    from repro.sim.sweep import DesignRef, SweepJob
    from repro.workloads.catalog import get_workload

    outcome = load.outcome
    fixture_refs = common.measured_refs(
        common.synthetic_records(FIXTURE_REFS))
    job_refs = common.measured_refs(common.synthetic_records(JOB_REFS))
    expected = dict(manifest)
    client = Client(port)
    job_digests = {}
    try:
        for number, job in enumerate(load.jobs):
            design, workload, job_seed = job["spec"]
            status, _, _, body = client.request("GET",
                                                f"/v1/cells/{job['key']}")
            if status != 200:
                outcome.fail(f"job cell {job['key']} answered {status}")
                continue
            result = json.loads(body)["result"]
            if number < 3:
                # The served job cell must be what simulate() computes.
                cell = SweepJob(DesignRef.of(design), get_workload(workload),
                                make_config(**common.BENCH_CONFIG), JOB_REFS,
                                job_seed)
                if cell.cache_key() != job["key"]:
                    outcome.fail(f"job key {job['key']} != in-process key "
                                 f"{cell.cache_key()}")
                expected[job["key"]] = common.result_digest(
                    cell.run().as_dict())
            job_digests.update(outcome.check_cells(
                [(job["key"], result, job_refs)], expected))
    finally:
        client.close()
    job_keys = {job["key"] for job in load.jobs}
    for kind, ref, body in load.bodies:
        try:
            payload = json.loads(body)
        except ValueError:
            outcome.fail(f"{kind} {ref}: body is not JSON")
            continue
        if kind == "cell":
            refs = job_refs if ref in job_keys else fixture_refs
            if ref not in expected and ref not in job_keys:
                outcome.fail(f"served cell {ref} was never stored")
                continue
            outcome.check_cells([(ref, payload["result"], refs)], expected)
        elif kind == "health":
            store = payload["store"]
            if payload["status"] != "ok" or store["corrupt"] \
                    or store["ok"] < len(manifest):
                outcome.fail(f"health reports {store}")
        elif kind == "cells_list":
            listed = set(payload["keys"])
            if (payload["total"] < len(manifest)
                    or not listed <= set(manifest) | job_keys):
                outcome.fail(f"{ref} lists unknown keys or "
                             f"total {payload['total']}")
        elif not any(isinstance(v, list) and v for v in payload.values()):
            outcome.fail(f"registry {ref} is empty")
    return job_digests


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
class Server:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self, store_dir: Path, log: Path) -> None:
        before = common.calibrate(3)
        self.started = time.perf_counter()
        self.log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", f"sqlite:{store_dir}", "--workers", "1"],
            cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        try:
            match = URL_LINE.search(self.proc.stdout.readline())
            if match is None:
                raise RuntimeError("repro serve printed no address")
            self.port = int(match.group(1))
            ready_s = self._await_health()
            #: Spawn until the first 200, at the reference speed.
            self.ready_s = common.to_reference(ready_s, before,
                                               common.calibrate(3))
        except BaseException:
            self.stop()
            raise

    def _await_health(self, timeout_s: float = 60.0) -> float:
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            client = Client(self.port)
            try:
                if client.request("GET", "/v1/health")[0] == 200:
                    return time.perf_counter() - self.started
            except (OSError, http.client.HTTPException):
                time.sleep(0.005)
            finally:
                client.close()
        raise RuntimeError("repro serve never answered /v1/health")

    def stop(self) -> float:
        """Terminate and reap the server; its peak RSS in MB."""
        self.proc.terminate()
        try:
            _, _, usage = os.wait4(self.proc.pid, 0)
        except ChildProcessError:
            return 0.0
        finally:
            self.proc.stdout.close()
            self.log.close()
        self.proc.returncode = -15
        return usage.ru_maxrss / 1024.0


def _at_reference(load: Load) -> List[Tuple[str, float, float]]:
    """``load.timed`` with each latency scaled by the calibrations taken
    just before and just after its due time.

    The host switches between two speeds within a second; one factor for
    the whole phase (the median calibration) picked one speed or the
    other, and the latency medians followed it.
    """
    if not load.speed:
        load.speed.append((time.perf_counter(), common.calibrate()))
    times = [when for when, _ in load.speed]
    scaled = []
    for family, due, ms in load.timed:
        i = bisect.bisect(times, due)
        before = load.speed[max(0, i - 1)][1]
        after = load.speed[min(i, len(times) - 1)][1]
        scaled.append((family, due, common.to_reference(ms, before, after)))
    return scaled


def _latency_stats(timed) -> Tuple[float, float, float, float]:
    """p50, the slowest Poisson family's p50, the tail percentile and
    p99 (ms).

    The median falls inside the cell and chart reads (5/8 of the mix),
    well clear of the faster re-requests and registry listings and of the
    slow listings.  The slowest family's median (the listing's, at this
    traffic) is the tail the gate compares: the tail percentiles are an
    order statistic of a dozen listings and the reads queued behind them,
    and moved by a fifth between runs.
    """
    latency = [ms for _, _, ms in timed]
    families: Dict[str, List[float]] = {}
    for family, _, ms in timed:
        if family != "health":
            families.setdefault(family, []).append(ms)
    return (common.median(latency),
            max(common.median(x) for x in families.values()),
            common.percentile(latency, TAIL),
            common.percentile(latency, 0.99))


def _family_p50(load: Load) -> Dict[str, float]:
    return {family: common.median(samples)
            for family, samples in sorted(load.family_ms.items())}


def run(seed: int, seconds: float, trace: bool, tiny: bool,
        corrupt: bool = False) -> Outcome:
    outcome = Outcome("serve-mixed")
    scratch = common.fresh_dir(common.WORK / "run-serve-mixed")
    fixture, manifest = store_fixture(seed, tiny)
    keys = sorted(manifest)
    if trace:
        return _traced(outcome, scratch, fixture, manifest, seed, tiny)

    store_dir = scratch / "store"
    shutil.copytree(fixture, store_dir)
    # The server, the client threads and the calibrations share one CPU
    # (the server inherits it), so the calibrations time the CPU the
    # requests run on and the scheduler cannot move the pair apart
    # between runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    open_s = seconds * OPEN_SHARE
    items = schedule(seed, keys, open_s)
    if corrupt:
        _corrupt(store_dir, next(arg for _, kind, arg in items
                                 if kind == "cell"))
    setups = []
    server = None
    try:
        for i in range(1 if tiny else SPAWNS):
            if server is not None:
                server.stop()
            server = Server(store_dir, scratch / f"serve-{i}.log")
            setups.append(server.ready_s)
        load = Load(outcome)
        open_loop(load, server.port, items, common.NPROC)
        rps = closed_loop(load, server.port, seed, keys, seconds - open_s)
        job_digests = check(load, server.port, manifest, seed)
    finally:
        rss_mb = server.stop() if server is not None else 0.0

    raw = _latency_stats(load.timed)
    p50, slowest, high, p99 = _latency_stats(_at_reference(load))
    turnaround = common.median([j["turnaround_s"] for j in load.jobs])
    outcome.metrics = {
        "setup_s": (common.median(setups), "s"),
        "throughput_per_s": (rps, "1/s"),
        "latency_ms": (p50, "ms"),
        "tail_latency_ms": (slowest, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    outcome.named = {
        "setup_s": (common.median(setups), "s"),
        "serve_p50_ms": (p50, "ms"),
        "serve_slowest_family_p50_ms": (slowest, "ms"),
        f"serve_p{TAIL * 100:g}_ms": (high, "ms"),
        "serve_p99_ms": (p99, "ms"),
        "serve_rps": (rps, "1/s"),
        "job_turnaround_s": (turnaround, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    outcome.notes.append(
        f"open loop: {len(load.timed)} timed requests at "
        f"{READ_RATE:g}/s reads + health every {HEALTH_PERIOD_S:g} s + "
        f"{len(load.jobs)} jobs at {JOB_RATE:g}/s over {open_s:.1f} s; "
        f"generator late p99 "
        f"{common.percentile(load.late_ms, 0.99):.2f} ms; unscaled p50, "
        f"slowest family p50, p{TAIL * 100:g}: "
        f"{', '.join(f'{x:.3f}' for x in raw[:3])} ms over {len(load.speed)} "
        f"calibrations; "
        f"{len(load.timed) * (1 - TAIL):.0f} samples beyond "
        f"p{TAIL * 100:g}, {len(load.timed) * 0.01:.0f} beyond p99")
    outcome.notes.append("client-side p50 ms: " + ", ".join(
        f"{k}={v:.2f}" for k, v in _family_p50(load).items()))
    outcome.notes.append(f"closed loop: {common.NPROC} connections for "
                         f"{seconds - open_s:.1f} s; store of {len(keys)} "
                         f"cells")
    outcome.digest = common.combined_digest({**manifest, **job_digests})
    return outcome


def _in_process(outcome: Outcome, store_dir: Path, items,
                manifest: Dict[str, str], seed: int,
                tracer: Optional[Tracer] = None):
    """Replay ``items`` against an in-process ``ServeApp``, traced when
    ``tracer`` is given (the output checks run untraced).  Returns the
    load, the seconds its requests took (the replay itself is paced by
    the schedule) and what the wrappers observed."""
    from repro.serve import ServeApp, make_server

    app = ServeApp(f"sqlite:{store_dir}", queue_workers=1)
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever,
                              name="bench-serve")
    thread.start()
    load = Load(outcome)
    observed: Dict[str, list] = {}
    try:
        with (installed(tracer) if tracer else contextlib.nullcontext()) \
                as observed:
            open_loop(load, server.server_address[1], items, workers=1)
        busy_s = sum(map(sum, load.family_ms.values())) / 1000.0
        check(load, server.server_address[1], manifest, seed)
    finally:
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
        app.close()
    return load, busy_s, observed


def _traced(outcome: Outcome, scratch: Path, fixture: Path,
            manifest: Dict[str, str], seed: int, tiny: bool) -> Outcome:
    duration = TINY["trace_seconds"] if tiny else TRACE_SECONDS
    items = schedule(seed, sorted(manifest), duration)
    shutil.copytree(fixture, scratch / "store-plain")
    _, plain_s, _ = _in_process(outcome, scratch / "store-plain", items,
                                manifest, seed)
    shutil.copytree(fixture, scratch / "store-traced")
    tracer = Tracer()
    load, traced_s, observed = _in_process(
        outcome, scratch / "store-traced", items, manifest, seed, tracer)
    outcome.metrics = layer_metrics(tracer, observed, {
        "serve.generator_late_ms": common.percentile(load.late_ms, 0.99),
        "trace.overhead_ratio": traced_s / plain_s - 1})
    # Every family the client sent must show on the server side, with the
    # layers under it.
    sent = set(load.family_ms)
    reached = [f"serve.{family}.p50_ms" for family in sorted(sent)]
    for family, metric in (("health", "serve.health_scan_s"),
                           ("cells_list", "serve.cells_list_s"),
                           ("cell_304", "serve.respcache_hit_ratio")):
        if family in sent:
            reached.append(metric)
    if load.jobs:
        reached += ["serve.queue_wait_s", "store.probe_many_s",
                    "sweep.job_run_s"]
    require_reached(outcome, outcome.metrics, reached)
    puts = outcome.metrics["store.put_calls"][0]
    if puts != len(load.jobs):
        outcome.fail(f"{len(load.jobs)} jobs stored {puts:g} cells")
    outcome.tracer = tracer
    outcome.digest = common.combined_digest(manifest)
    return outcome
