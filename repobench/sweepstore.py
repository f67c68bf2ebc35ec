"""``sweep-store``: a cold ``python -m repro sweep`` into a fresh
``sqlite:`` store, then the identical command again, warm.

The grid is the evaluated designs (plus the no-NM baseline the sweep adds
per workload) over the first four Table 2 workloads of every MPKI class
and one trace-file workload, so ``repro.trace`` loading is on the cold
path.  A cold run and three warm ones repeat until the run's seconds are
used up.  The traced run executes one cold and one warm sweep in-process through ``repro.cli.main`` with one
worker, so the wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import common
from .common import Outcome
from .tracing import Tracer, installed, layer_metrics, require_reached

DESIGNS = ("evaluated",)
REFS = 2_000
PER_CLASS = 4
TRACE_RECORDS = 4_000
#: Table 2 workload the trace-file fixture is generated from.
TRACE_SOURCE = "gcc"
TRACE_NAME = "bench-trace"
#: Warm runs after each cold one: a warm run takes about 0.3 s, and one a
#: pair left the median of five swinging by a fifth between runs.
WARM_REPEATS = 3

TINY = {"designs": ("HYBRID2", "TAGLESS"), "refs": 400, "per_class": 1}

SETUP_CODE = "import repro.cli"

#: Per-layer metrics the traced pair must find non-zero.
REACHED = ("workloads.generate_s", "design.step_self_s", "driver.self_s",
           "trace.load_s", "sweep.import_s", "store.fingerprint_s",
           "sweep.prepare_s", "store.probe_many_s", "store.select_queries",
           "store.put_calls", "store.put_s", "sweep.job_run_s",
           "sweep.orchestration_self_s", "sweep.attempts_per_job")

JOBS_LINE = re.compile(r"jobs: (\d+) total, (\d+) simulated, (\d+) from store")


def trace_fixture(seed: int) -> Path:
    """The seeded trace file, built once per (seed, model fingerprint)."""
    from repro.sim.store import model_fingerprint
    from repro.trace import write_tsv
    from repro.workloads.catalog import get_workload
    from repro.workloads.synthetic import generate_trace

    folder = common.WORK / "fixtures" / model_fingerprint() / f"seed-{seed}"
    path = folder / f"{TRACE_NAME}.tsv"
    if not path.is_file():
        folder.mkdir(parents=True, exist_ok=True)
        trace = generate_trace(get_workload(TRACE_SOURCE), TRACE_RECORDS,
                               seed=seed, scale=common.BENCH_CONFIG["scale"])
        partial = folder / f"{TRACE_NAME}.partial.tsv"
        write_tsv(trace, partial)
        partial.replace(path)
    return path


class Grid:
    """The sweep's cells and the command line that runs them."""

    def __init__(self, seed: int, tiny: bool) -> None:
        from repro.baselines import EVALUATED_DESIGNS
        from repro.workloads.catalog import representative_workloads

        self.seed = seed
        self.designs = TINY["designs"] if tiny else DESIGNS
        self.refs = TINY["refs"] if tiny else REFS
        per_class = TINY["per_class"] if tiny else PER_CLASS
        self.workloads = [w.name for w in representative_workloads(per_class)]
        self.trace = trace_fixture(seed)
        labels = (EVALUATED_DESIGNS if self.designs == DESIGNS
                  else self.designs)
        self.labels = ("BASELINE", *labels)
        self.cells = len(self.labels) * (len(self.workloads) + 1)

    def argv(self, store: Path, out: Path, workers: int) -> List[str]:
        config = common.BENCH_CONFIG
        return ["sweep", "--designs", *self.designs,
                "--workloads", *self.workloads, f"trace:{self.trace}",
                "--refs", str(self.refs), "--seed", str(self.seed),
                "--nm-gb", str(config["nm_gb"]),
                "--fm-gb", str(config["fm_gb"]),
                "--scale", str(config["scale"]),
                "--workers", str(workers), "--store", f"sqlite:{store}",
                "--out", str(out)]

    def expected_refs(self, workload: str) -> int:
        if workload == TRACE_NAME:
            return common.measured_refs(min(self.refs, TRACE_RECORDS))
        return common.measured_refs(common.synthetic_records(self.refs))


def _cells_of(out: Path) -> Dict[str, dict]:
    """``label/workload -> result`` of a sweep's ``--out`` JSON."""
    payload = json.loads(out.read_text())
    cells = {f"BASELINE/{name}": result
             for name, result in payload["baselines"].items()}
    for result in payload["runs"]:
        cells[f"{result['label']}/{result['workload']}"] = {
            k: v for k, v in result.items() if k != "label"}
    return cells


def _check_sweep(outcome: Outcome, grid: Grid, stdout: str, code: int,
                 out: Path, simulated: int,
                 reference: Dict[str, str]) -> Dict[str, str]:
    """Check one sweep's exit code, job accounting and every cell."""
    match = JOBS_LINE.search(stdout)
    counts = tuple(int(g) for g in match.groups()) if match else None
    want = (grid.cells, simulated, grid.cells - simulated)
    if code != 0 or counts != want:
        outcome.fail(f"sweep exited {code} with jobs {counts}, expected "
                     f"{want}: {stdout[-300:]!r}")
        return {}
    cells = _cells_of(out)
    if len(cells) != grid.cells:
        outcome.fail(f"--out holds {len(cells)} cells, not {grid.cells}")
    return outcome.check_cells(
        ((cell_id, result, grid.expected_refs(cell_id.split("/", 1)[1]))
         for cell_id, result in sorted(cells.items())), reference)


def _check_against_sim(outcome: Outcome, grid: Grid, store_dir: Path,
                       digests: Dict[str, str]) -> None:
    """Re-simulate a few cells in-process; the stored cell, the warm hit
    (``digests``) and the fresh ``simulate()`` result must agree."""
    from repro.sim.store import CELL_OK, ResultStore
    from repro.sim.sweep import DesignRef, SweepJob
    from repro.workloads.catalog import get_workload
    from repro.workloads.tracefile import TraceFileWorkload

    store = ResultStore(f"sqlite:{store_dir}", read_only=True)
    samples = [(grid.labels[-1], grid.workloads[0]),
               ("BASELINE", TRACE_NAME), (grid.labels[1], TRACE_NAME)]
    try:
        for label, workload in samples:
            spec = (TraceFileWorkload.from_path(grid.trace)
                    if workload == TRACE_NAME else get_workload(workload))
            job = SweepJob(DesignRef.of(label), spec, common.bench_config(),
                           grid.refs, grid.seed)
            fresh = common.result_digest(job.run().as_dict())
            status, stored = store.probe_many([job.cache_key()])[
                job.cache_key()]
            stored_digest = (common.result_digest(stored.as_dict())
                             if status == CELL_OK else status)
            served = digests.get(f"{label}/{workload}")
            outcome.op(fresh == stored_digest == served,
                       f"{label}/{workload}: simulate() {fresh}, stored "
                       f"{stored_digest}, warm sweep {served}")
    finally:
        store.backend.close()


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    outcome = Outcome("sweep-store")
    scratch = common.fresh_dir(common.WORK / "run-sweep-store")
    grid = Grid(seed, tiny)
    setup = common.SetupProbe(SETUP_CODE, scratch)
    wanted = 1 if tiny else common.SETUP_SAMPLES
    if trace:
        return _traced(outcome, grid, scratch, setup.median(wanted))

    from repro.trace import drop_cache
    cold_s: List[float] = []
    warm_s: List[float] = []
    raw_s: List[float] = []
    rss: List[float] = []
    reference: Dict[str, str] = {}
    store_dir: Optional[Path] = None
    spent = 0.0                     # in sweeps; set-up samples not counted
    while not cold_s or spent < seconds:
        start = time.perf_counter()
        if store_dir is not None:
            shutil.rmtree(store_dir)
        i = len(cold_s)
        store_dir = scratch / f"store-{i}"
        drop_cache(grid.trace)
        digests = {}
        for phase, simulated, times in (
                ("cold", grid.cells, cold_s),
                *(("warm", 0, warm_s),) * (1 if tiny else WARM_REPEATS)):
            out = scratch / f"{phase}-{i}-{len(times)}.json"
            child = common.run_cli(grid.argv(store_dir, out, common.NPROC),
                                   out.with_suffix(".out"))
            times.append(child.ref_s)
            if phase == "cold":
                raw_s.append(child.wall_s)
                rss.append(child.peak_rss_mb)
            digests = _check_sweep(outcome, grid, child.stdout,
                                   child.returncode, out, simulated,
                                   reference)
            reference = reference or digests
        spent += time.perf_counter() - start
        setup.sample(min(2, wanted - len(setup.samples)))
    setup_s = setup.median(wanted)
    _check_against_sim(outcome, grid, store_dir, digests)

    cells_per_s = common.median([grid.cells / s for s in cold_s])
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (cells_per_s, "1/s"),
        "latency_ms": (common.median(warm_s) * 1000.0, "ms"),
        "tail_latency_ms": (common.median(cold_s) * 1000.0, "ms"),
        "peak_rss_mb": (common.median(rss), "MB"),
    }
    outcome.named = {
        "setup_s": (setup_s, "s"),
        "sweep_cold_cells_per_s": (cells_per_s, "cells/s"),
        "sweep_warm_s": (common.median(warm_s), "s"),
        "peak_rss_mb": (common.median(rss), "MB"),
    }
    outcome.notes.append(
        f"{len(cold_s)} cold runs, each followed by "
        f"{len(warm_s) // len(cold_s)} warm, of {grid.cells} cells, {grid.refs} "
        f"refs, {common.NPROC} workers; unscaled cold "
        f"{common.median(raw_s):.3f} s")
    outcome.digest = common.combined_digest(reference)
    return outcome


def _in_process_pair(outcome: Outcome, grid: Grid, scratch: Path, tag: str,
                     reference: Dict[str, str]) -> Tuple[float, dict]:
    """Cold then warm sweep through ``repro.cli.main`` (one worker)."""
    from repro import cli
    from repro.sim import store
    from repro.trace import drop_cache

    store_dir = scratch / f"store-{tag}"
    drop_cache(grid.trace)
    # Recomputed once per pair, as in a fresh interpreter (in the traced
    # run the lru_cache sits behind the tracing wrapper).
    fingerprint = store.model_fingerprint
    while not hasattr(fingerprint, "cache_clear"):
        fingerprint = fingerprint.__wrapped__
    fingerprint.cache_clear()
    start = time.perf_counter()
    digests = {}
    for phase, simulated in (("cold", grid.cells), ("warm", 0)):
        out = scratch / f"{phase}-{tag}.json"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(grid.argv(store_dir, out, 1))
        digests = _check_sweep(outcome, grid, buffer.getvalue(), code, out,
                               simulated, reference)
    return time.perf_counter() - start, digests


def _traced(outcome: Outcome, grid: Grid, scratch: Path,
            import_s: float) -> Outcome:
    plain_s, reference = _in_process_pair(outcome, grid, scratch, "plain",
                                          {})
    tracer = Tracer()
    with installed(tracer) as observed:
        traced_s, _ = _in_process_pair(outcome, grid, scratch, "traced",
                                       reference)
    _check_against_sim(outcome, grid, scratch / "store-traced", reference)
    outcome.metrics = layer_metrics(tracer, observed, {
        "sweep.import_s": import_s,
        "trace.overhead_ratio": traced_s / plain_s - 1})
    require_reached(outcome, outcome.metrics, REACHED)
    # The cold sweep stores every cell once; the warm one stores none.
    puts = outcome.metrics["store.put_calls"][0]
    if puts != grid.cells:
        outcome.fail(f"the traced pair stored {puts:g} cells, not "
                     f"{grid.cells}")
    outcome.tracer = tracer
    outcome.digest = common.combined_digest(reference)
    return outcome
