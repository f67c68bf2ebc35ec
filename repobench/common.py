"""Shared plumbing of the benchmark: paths, child processes, statistics,
result digests and the output checks every workload applies."""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Checkout root (the benchmark runs from it) and the package sources.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes: fixtures, per-run stores, span dumps.
WORK = ROOT / ".repobench"

#: The ``bench`` configuration every simulation of the benchmark uses.
BENCH_CONFIG = {"nm_gb": 1, "fm_gb": 16, "scale": 256}

#: Upper bound on threads, connections and sweep workers.
NPROC = max(1, min(2, len(os.sched_getaffinity(0))))

#: Seconds one pass of :func:`_calibration_loop` takes on the reference
#: machine; see :func:`to_reference`.
REFERENCE_S = 0.010


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def bench_config():
    from repro.params import make_config
    return make_config(**BENCH_CONFIG)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_FAULTS", None)
    return env


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
def _calibration_loop() -> float:
    """Fixed interpreter work that does not touch the repository."""
    table: Dict[int, int] = {}
    total, kept = 0.0, []
    for i in range(30_000):
        k = i & 1023
        table[k] = table.get(k, 0) + 1
        total += (i * 0.5) / (k + 1)
        if i % 7 == 0:
            kept.append(i)
    return total + len(kept)


def calibrate(passes: int = 1) -> float:
    """Seconds one pass of the calibration loop takes right now (the
    median of ``passes``)."""
    samples = []
    for _ in range(passes):
        start = time.perf_counter()
        _calibration_loop()
        samples.append(time.perf_counter() - start)
    return median(samples)


def to_reference(raw_s: float, before: float, after: float) -> float:
    """Scale host seconds to the reference speed.

    On a shared host the speed of the interpreter swings by up to 2x
    within a minute.  ``before`` and ``after`` are :func:`calibrate` times
    taken around the measured work; dividing by their mean (in units of
    :data:`REFERENCE_S`) cancels most of that swing, as long as the work
    is CPU-bound like the loop.
    """
    return raw_s * 2.0 * REFERENCE_S / (before + after)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    #: ``wall_s`` scaled to the reference speed (see :func:`to_reference`).
    ref_s: float
    peak_rss_mb: float
    stdout: str


def run_child(argv: Sequence[str], out_path: Path,
              timeout_s: float = 150.0) -> ChildRun:
    """Run ``argv`` to completion; wall time and peak RSS from ``wait4``.

    Output goes to ``out_path`` (not a pipe), so waiting cannot deadlock.
    """
    before = calibrate(3)
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        deadline = start + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall,
                    to_reference(wall, before, calibrate(3)),
                    usage.ru_maxrss / 1024.0, out_path.read_text())


#: A child's own calibration: ``_calibrate()`` is the median of three
#: passes of :func:`_calibration_loop`, timed in the child itself so the
#: speed it measures is that of the child's CPU at the time.
CHILD_CALIBRATION = inspect.getsource(_calibration_loop) + """
def _calibrate():
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[1]
"""

#: A set-up child: prints the seconds ``{body}`` took and the
#: calibrations before and after it.
SETUP_PROBE = """\
import time
{calibration}
before = _calibrate()
start = time.perf_counter()
{body}
elapsed = time.perf_counter() - start
print(elapsed, before, _calibrate())
"""

#: ``python -m repro <args>``, with the seconds from the first ``repro``
#: import to the end of ``main`` and the calibrations around them as the
#: last line of its output.
CLI_PROBE = """\
import runpy, sys, time
{calibration}
before = _calibrate()
start = time.perf_counter()
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
elapsed = time.perf_counter() - start
print(CLI_TIMING, elapsed, before, _calibrate(), flush=True)
sys.exit(code)
"""
CLI_TIMING = "repobench-timing"


def run_cli(args: Sequence[str], out_path: Path) -> ChildRun:
    """``python -m repro <args>`` through :data:`CLI_PROBE`: ``ref_s`` is
    the CLI's own time (interpreter start excluded) scaled by the child's
    own calibrations, and ``stdout`` is the CLI's output."""
    code = CLI_PROBE.format(calibration=CHILD_CALIBRATION).replace(
        "CLI_TIMING", repr(CLI_TIMING))
    child = run_child([sys.executable, "-c", code, *args], out_path)
    lines = child.stdout.rstrip("\n").split("\n")
    if lines and lines[-1].startswith(CLI_TIMING + " "):
        elapsed, before, after = map(float, lines[-1].split()[1:])
        child.ref_s = to_reference(elapsed, before, after)
        child.stdout = "\n".join(lines[:-1]) + "\n"
    return child


#: Set-up samples a run takes (its ``setup_s`` is their median).
SETUP_SAMPLES = 9


class SetupProbe:
    """Reference seconds ``body`` takes in a fresh interpreter.

    ``body`` runs from the first ``repro`` import to the point the caller
    calls ready.  Each sample is scaled by calibrations the child takes
    itself: scaled by the parent's, the quartile spread of the median of
    9 over eight batches was 0.17 of the median, against 0.07.  Callers
    take the samples between their units of work, so that they see the
    host's speed over the whole run rather than over a few seconds of it.
    """

    def __init__(self, body: str, scratch: Path) -> None:
        self.code = SETUP_PROBE.format(calibration=CHILD_CALIBRATION,
                                       body=body)
        self.scratch = scratch
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            child = run_child([sys.executable, "-c", self.code],
                              self.scratch / f"setup-{len(self.samples)}.out")
            if child.returncode != 0:
                raise RuntimeError(f"set-up child failed: "
                                   f"{child.stdout[-400:]}")
            elapsed, before, after = map(
                float, child.stdout.strip().splitlines()[-1].split())
            self.samples.append(to_reference(elapsed, before, after))

    def median(self, wanted: int) -> float:
        """The median, after topping the samples up to ``wanted``."""
        self.sample(wanted - len(self.samples))
        return median(self.samples)


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def result_digest(result: dict) -> str:
    """Digest of one ``RunResult.as_dict()`` (exact float reprs)."""
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def combined_digest(digests: Dict[str, str]) -> str:
    text = "\n".join(f"{k}={v}" for k, v in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def measured_refs(total_records: int, warmup_fraction: float = 0.25) -> int:
    """References ``simulate()`` reports after its built-in warm-up."""
    return total_records - int(total_records * warmup_fraction)


def synthetic_records(refs: int, cores: int = 8) -> int:
    """Records ``simulate()`` drives for a synthetic ``refs`` budget."""
    return max(1, refs // cores) * cores


def sanity_errors(result: dict, expected_refs: Optional[int]) -> List[str]:
    """Cheap invariants every cell must satisfy."""
    errors = []
    if expected_refs is not None and result["references"] != expected_refs:
        errors.append(f"references {result['references']} != "
                      f"{expected_refs}")
    if not result["cycles"] > 0:
        errors.append(f"cycles {result['cycles']} not > 0")
    if not 0.0 <= result["nm_service_ratio"] <= 1.0:
        errors.append(f"nm_service_ratio {result['nm_service_ratio']} "
                      f"outside [0, 1]")
    stats = result.get("stats", {})
    if stats.get("requests.from_nm", 0) > stats.get("requests", 0):
        errors.append("requests_from_nm > requests")
    return errors


# ---------------------------------------------------------------------------
# outcome of one run
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """What a workload reports: metrics, operation accounting, digest."""

    workload: str
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: The workload-specific metric names, printed as human-readable lines.
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    notes: List[str] = field(default_factory=list)
    #: The :class:`~repobench.tracing.Tracer` of a traced run.
    tracer: Optional[object] = None

    def op(self, ok: bool, error: str = "") -> None:
        """Account one operation (a cell, a request or a job)."""
        self.attempted += 1
        if not ok:
            self.fail(error or "operation failed", count=False)

    def fail(self, error: str, count: bool = True) -> None:
        """Record a failure; ``count`` also adds it as an attempt."""
        if count:
            self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(error)

    def check_cells(self, cells: Iterable[Tuple[str, dict, Optional[int]]],
                    expected: Dict[str, str]) -> Dict[str, str]:
        """Sanity-check and digest ``(cell id, result dict, refs)`` cells;
        where ``expected`` holds a digest for the id it must match."""
        digests = {}
        for cell_id, result, refs in cells:
            digest = result_digest(result)
            digests[cell_id] = digest
            errors = sanity_errors(result, refs)
            want = expected.get(cell_id)
            if want is not None and want != digest:
                errors.append(f"digest {digest} != expected {want}")
            self.op(not errors, f"{cell_id}: {'; '.join(errors)}")
        return digests
