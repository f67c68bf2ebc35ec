"""Engine performance benchmark: refs/sec of ``simulate()`` and each design.

The paper's design-space sweeps are throughput-bound on
:func:`~repro.sim.simulator.simulate`; this module measures that throughput
and tracks it in ``BENCH_engine.json``, so perf regressions are caught like
correctness regressions.  Raw rates depend on the host; every gated number
is a ratio of two rates measured in the same process:

* **fast path** — ``simulate()`` end to end (trace generation, schedule
  flattening, the driver loop) on the fixed-latency
  :class:`NullMemorySystem`, divided by the rate of a fixed pure-Python
  calibration loop.  It falls when the engine gets slower and the
  interpreter does not.
* **fast path (small)** — the same at :data:`SMALL_REFS` references,
  where a fixed per-run cost would stop amortizing.
* **generator** — :func:`~repro.workloads.synthetic.generate_trace` alone,
  divided by the calibration rate.
* **designs** — each catalog design's refs/sec through ``simulate()``
  divided by the null system's refs/sec on the same workload and
  reference count: the share of the engine floor a design keeps.  Only
  the design's own step and DRAM kernels separate the two, so the ratio
  falls when they get slower.
* **designs (small)** — the same ratio at the small reference count.  As
  in a sweep cell, the design's construction and ``collect_stats`` fall
  inside the timed call, so this gate also trips when a per-run cost
  that scales with the design's structures (the remap table of the
  migration designs, for one) stops being small next to the run.

Each ratio is timed as a pair, denominator then numerator back to back
with the garbage collector off, and every pair runs once per round for
``repeat`` rounds.  The gated ratio is the median over the rounds of the
pair's ratio; the reported rates are the best of each piece.  On a
shared host the interpreter's speed drifts by up to 2.5x within seconds;
two back-to-back timings share most of that drift, so the median of
paired ratios moves far less between runs than a ratio of two best
times taken seconds apart.

Every run measures every section on :data:`WORKLOAD` at
:data:`CONFIG`, with every design of the registry; only the small-trace
sections are left out, when ``refs`` is at most :data:`SMALL_REFS`.
Run it with ``python -m repro bench`` (see the CLI) or via
``benchmarks/bench_perf_engine.py``.  After an intentional perf change,
refresh the checked-in baseline by writing a run over it on the pinned
interpreter: ``python -m repro bench --out
benchmarks/results/BENCH_engine_baseline.json``.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..baselines import DESIGN_FACTORIES
from ..baselines.base import MemorySystem
from ..params import SystemConfig, make_config
from ..workloads.catalog import get_workload
from .simulator import _forget_inputs, simulate
from ..workloads import synthetic

#: Bump when the report layout changes.  Schema 4 gates a ``ratio`` in
#: every section: engine rates over the calibration loop, design rates
#: over the null system at the full and the small reference count.
#: :func:`compare_to_baseline` refuses a baseline of any other schema.
BENCH_SCHEMA = 4

#: Reference count of the ``fast_path_small`` and ``designs_small``
#: sections, the size of a sweep cell: small enough that a fixed per-run
#: overhead (column materialization, kernel compilation, a design's
#: setup and stats) would dominate if it ever stopped amortizing.
SMALL_REFS = 2_000

#: Catalog workload every timed run drives.
WORKLOAD = "mcf"

#: System every timed run simulates.
CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)

#: Largest fractional drop of a gated ratio below its baseline value.
MAX_REGRESSION = 0.30

#: Iterations of :func:`_calibration_loop`, the unit of its rate.
CALIBRATION_OPS = 100_000

#: Sections whose ratio is over the calibration rate.
ENGINE_SECTIONS = ("fast_path", "fast_path_small", "generator")

#: Default location of the tracked report, relative to the working dir.
DEFAULT_REPORT = "BENCH_engine.json"


def _calibration_loop() -> float:
    """Fixed interpreter work that touches nothing in the package: dict
    updates, float arithmetic and list appends, like the driver loop."""
    table: Dict[int, int] = {}
    total, kept = 0.0, []
    for i in range(CALIBRATION_OPS):
        k = i & 1023
        table[k] = table.get(k, 0) + 1
        total += (i * 0.5) / (k + 1)
        if i % 7 == 0:
            kept.append(i)
    return total + len(kept)


class NullMemorySystem(MemorySystem):
    """Fixed-latency memory system that isolates the engine.

    Every access is served after ``latency_ns``; there are no address
    columns, no memories and the step only returns the latency (the
    system has no near memory, so it counts no NM-served request).
    With the memory model reduced to a constant, ``simulate()`` spends its
    time in trace generation, scheduling and the interval-core arithmetic —
    the fast path this benchmark tracks.
    """

    name = "NULL"

    def __init__(self, config: SystemConfig, latency_ns: float = 80.0) -> None:
        super().__init__(config)
        self.latency_ns = latency_ns

    def _columns(self, addresses):
        return ()

    def _step(self):
        latency_ns = self.latency_ns

        def step(is_write: bool, now_ns: float) -> float:
            return latency_ns

        return step

    @property
    def flat_capacity_bytes(self) -> int:
        return (self.config.near.capacity_bytes
                + self.config.far.capacity_bytes)


#: A timed piece: the call, and the units (refs, records, ops) it does.
Timed = Tuple[Callable[[], object], int]


def _seconds(fn: Callable[[], object]) -> float:
    """Wall time of one call with the collector off, as :mod:`timeit`
    does: a collection falling inside one timing would charge that piece
    for garbage another piece made."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _measure(pieces: Dict[str, Timed], pairs: Dict[str, Tuple[str, str]],
             repeat: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Time every ``(denominator, numerator)`` pair of ``pieces`` back to
    back, once per round for ``repeat`` rounds.  Returns the best rate of
    each piece timed and the median over rounds of each pair's
    numerator-over-denominator rate ratio."""
    best: Dict[str, float] = {}
    ratios: Dict[str, List[float]] = {name: [] for name in pairs}
    for _ in range(repeat):
        for name, pair in pairs.items():
            rates = []
            for piece in pair:
                fn, units = pieces[piece]
                rate = units / max(_seconds(fn), 1e-9)
                best[piece] = max(best.get(piece, 0.0), rate)
                rates.append(rate)
            ratios[name].append(rates[1] / rates[0])
    return best, {name: statistics.median(values)
                  for name, values in ratios.items()}


def run_benchmark(*, refs: int = 60_000, repeat: int = 5) -> dict:
    """Measure every section and return the ``BENCH_engine.json`` payload.

    The small-trace sections run only when ``refs`` exceeds
    :data:`SMALL_REFS`.  Raises ``ValueError`` when ``refs`` or
    ``repeat`` is below 1.
    """
    if refs < 1 or repeat < 1:
        raise ValueError(f"bench needs refs >= 1 and repeat >= 1, got refs "
                         f"{refs} and repeat {repeat}")
    spec = get_workload(WORKLOAD)

    def run(factory, n: int) -> Timed:
        def timed():
            # Every timed run generates and flattens its trace, as the
            # first design of a workload does.
            _forget_inputs()
            return simulate(factory(CONFIG), spec, num_references=n, seed=1)
        return timed, n

    small = refs > SMALL_REFS
    pieces: Dict[str, Timed] = {
        "calibration": (_calibration_loop, CALIBRATION_OPS),
        "null": run(NullMemorySystem, refs),
        "null_small": run(NullMemorySystem, SMALL_REFS),
        "generator": (lambda: synthetic.generate_trace(spec, refs, seed=1),
                      refs),
        **{label: run(factory, refs)
           for label, factory in DESIGN_FACTORIES.items()},
        **{f"{label} small": run(factory, SMALL_REFS)
           for label, factory in DESIGN_FACTORIES.items()},
    }
    pairs: Dict[str, Tuple[str, str]] = {
        "fast_path": ("calibration", "null"),
        "generator": ("calibration", "generator"),
        **{label: ("null", label) for label in DESIGN_FACTORIES},
    }
    if small:
        pairs["fast_path_small"] = ("calibration", "null_small")
        pairs.update((f"{label} small", ("null_small", f"{label} small"))
                     for label in DESIGN_FACTORIES)
    rates, ratios = _measure(pieces, pairs, repeat)

    payload = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "refs": refs,
        "workload": WORKLOAD,
        "repeat": repeat,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "calibration": {"ops_per_sec": rates["calibration"]},
        "fast_path": {"refs_per_sec": rates["null"],
                      "ratio": ratios["fast_path"]},
        "generator": {"records_per_sec": rates["generator"],
                      "ratio": ratios["generator"]},
        "null": {"refs_per_sec": rates["null"]},
        "designs": {label: {"refs_per_sec": rates[label],
                            "ratio": ratios[label]}
                    for label in DESIGN_FACTORIES},
    }
    if small:
        payload["small_refs"] = SMALL_REFS
        payload["fast_path_small"] = {"refs_per_sec": rates["null_small"],
                                      "ratio": ratios["fast_path_small"]}
        payload["null_small"] = {"refs_per_sec": rates["null_small"]}
        payload["designs_small"] = {
            label: {"refs_per_sec": rates[f"{label} small"],
                    "ratio": ratios[f"{label} small"]}
            for label in DESIGN_FACTORIES}
    return payload


def render_report(payload: dict) -> str:
    """Human-readable rendering of a benchmark payload."""
    lines = [
        f"engine benchmark ({payload['refs']} refs, workload "
        f"{payload['workload']}, {payload['repeat']} rounds)",
    ]

    def row(name: str, rate: float, unit: str, note: str = "") -> None:
        lines.append(f"  {name:<11s} {rate:>12,.0f} {unit:<6s}  {note}"
                     .rstrip())

    row("calibration", payload["calibration"]["ops_per_sec"], "ops/s")
    for name, section, key, unit in (
            ("fast path", "fast_path", "refs_per_sec", "refs/s"),
            ("generator", "generator", "records_per_sec", "recs/s"),
            ("fast path", "fast_path_small", "refs_per_sec", "refs/s")):
        if section in payload:
            entry = payload[section]
            note = f"({entry['ratio']:.3f} per calibration op)"
            if section == "fast_path_small":
                note += f"  [{payload['small_refs']} refs]"
            row(name, entry[key], unit, note)
    for section, null in (("designs", "null"),
                          ("designs_small", "null_small")):
        if section not in payload:
            continue
        refs = (f"[{payload['small_refs']} refs]"
                if section == "designs_small" else "")
        row("NULL", payload[null]["refs_per_sec"], "refs/s", refs)
        for label, entry in payload[section].items():
            row(label, entry["refs_per_sec"], "refs/s",
                f"({entry['ratio']:.3f} of NULL)  {refs}")
    return "\n".join(lines)


def compare_to_baseline(payload: dict, baseline: dict) -> List[str]:
    """Regression check against a stored baseline payload.

    Raw refs/sec varies with the host, so the gate compares each section's
    ``ratio`` (see the module docstring), measured in one process.  A
    baseline of another schema, one measured at other
    :data:`GATED_SETTINGS` (the ratios move with the trace length and the
    number of rounds), or one missing a section the payload measured,
    fails: a gate that skips what it cannot compare would pass
    vacuously.  Returns a list of failure messages; empty means no ratio
    fell by more than :data:`MAX_REGRESSION`.
    """
    if baseline.get("schema") != BENCH_SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} is not the "
                f"current schema {BENCH_SCHEMA}; regenerate it with "
                f"python -m repro bench --out FILE"]
    differ = [f"{key} {payload.get(key)!r} vs baseline {baseline.get(key)!r}"
              for key in GATED_SETTINGS
              if payload.get(key) != baseline.get(key)]
    if differ:
        return [f"run settings differ from the baseline: {setting} (rerun "
                f"at the baseline's settings)" for setting in differ]
    floor = 1.0 - MAX_REGRESSION
    failures = []
    for label, entry, base in _gated(payload, baseline):
        if base is None:
            failures.append(f"{label} is missing from the baseline")
        elif entry["ratio"] < base["ratio"] * floor:
            failures.append(
                f"{label} ratio regressed: {entry['ratio']:.3f} vs baseline "
                f"{base['ratio']:.3f} (floor {base['ratio'] * floor:.3f})")
    return failures


def _gated(payload: dict, baseline: dict) -> List[tuple]:
    """``(label, entry, baseline entry or None)`` of every gated ratio
    the payload measured."""
    gated = [(section, payload[section], baseline.get(section))
             for section in ENGINE_SECTIONS if section in payload]
    gated += [(f"{name} {label}", entry, baseline.get(section, {}).get(label))
              for section, name in (("designs", "design"),
                                    ("designs_small", "designs_small"))
              for label, entry in payload.get(section, {}).items()]
    return gated


def render_gate(payload: dict, baseline: dict) -> str:
    """One row per gated ratio: this run's, the baseline's and the floor
    it must stay above (:func:`compare_to_baseline` decides)."""
    floor = 1.0 - MAX_REGRESSION
    lines = [f"  {'gated ratio':<24s} {'run':>7s} {'baseline':>9s} "
             f"{'floor':>7s}"]
    for label, entry, base in _gated(payload, baseline):
        if base is None:
            lines.append(f"  {label:<24s} {entry['ratio']:>7.3f} "
                         f"{'missing':>9s}")
            continue
        lines.append(f"  {label:<24s} {entry['ratio']:>7.3f} "
                     f"{base['ratio']:>9.3f} {base['ratio'] * floor:>7.3f}")
    return "\n".join(lines)


#: Run settings a run must share with the baseline to be gated against
#: it.  The runtime is left out: a gate on another interpreter prints a
#: note (``python -m repro bench``) and still runs.
GATED_SETTINGS = ("refs", "workload", "repeat", "small_refs")


def write_report(payload: dict, path: str = DEFAULT_REPORT) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
