"""Engine performance benchmark: refs/sec of the simulation fast path.

The paper's design-space sweeps are throughput-bound on
:func:`~repro.sim.simulator.simulate`; this module measures that throughput
and tracks it over time in ``BENCH_engine.json`` so perf regressions are
caught like correctness regressions.  Four sections are measured:

* **fast path** — ``simulate()`` end to end (trace generation + columnar
  driver + interval-core model) against a fixed-latency
  :class:`NullMemorySystem`, isolating the engine from any one design's
  model cost.  The same measurement through the preserved seed engine
  (:mod:`repro.sim.legacy`) yields the tracked ``speedup`` ratio, which is
  machine-independent (both engines run on the same interpreter in the same
  process) and is what the CI regression gate compares.
* **generator** — :func:`~repro.workloads.synthetic.generate_trace` alone,
  vectorized vs the seed per-record loop.
* **designs** — end-to-end refs/sec of each catalog design through its
  batch fast path vs the same design through the preserved seed engine.
  The raw refs/sec trajectory is machine-dependent (reported, not gated);
  the per-design ``speedup`` ratio is measured in-process and gated by the
  CI perf matrix, one design per job.
* **fast path (small)** — the fast-path measurement again at a small
  reference count (default 2000), pinning the short-trace regime where
  column-materialization overhead must stay amortized.

Run it with ``python -m repro bench`` (see the CLI) or via
``benchmarks/bench_perf_engine.py``.  ``python -m repro bench
--update-baseline`` regenerates the checked-in baseline after an
intentional perf change.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..baselines import DESIGN_FACTORIES
from ..baselines.base import MemorySystem
from ..params import SystemConfig, make_config
from ..workloads.catalog import get_workload
from . import legacy
from .simulator import simulate
from ..workloads import synthetic

#: Bump when the report layout changes.  Schema 2 turned each ``designs``
#: value from a bare refs/sec float into a ``{refs_per_sec,
#: seed_refs_per_sec, speedup}`` dict and added the ``fast_path_small``
#: section; :func:`compare_to_baseline` still reads schema-1 baselines.
BENCH_SCHEMA = 2

#: Reference count of the ``fast_path_small`` section: small enough that a
#: fixed per-run overhead (column materialization, kernel compilation)
#: would dominate if it ever stopped amortizing.
SMALL_REFS = 2_000

#: Default location of the tracked report, relative to the working dir.
DEFAULT_REPORT = "BENCH_engine.json"


class NullMemorySystem(MemorySystem):
    """Fixed-latency memory system that isolates the engine.

    Every access is served from "near memory" after ``latency_ns``; there
    are no address columns and the step only counts the request.  With the
    memory model reduced to a constant, ``simulate()`` spends its time in
    trace generation, scheduling and the interval-core arithmetic — the
    fast path this benchmark tracks.
    """

    name = "NULL"

    def __init__(self, config: SystemConfig, latency_ns: float = 80.0) -> None:
        super().__init__(config)
        self.latency_ns = latency_ns

    def _columns(self, addresses):
        return ()

    def _step(self):
        latency_ns = self.latency_ns

        def step(i: int, is_write: bool, now_ns: float) -> float:
            self.requests += 1
            if is_write:
                self.write_requests += 1
            self.requests_from_nm += 1
            return latency_ns

        return step

    @property
    def flat_capacity_bytes(self) -> int:
        return (self.config.near.capacity_bytes
                + self.config.far.capacity_bytes)


def _rate(fn: Callable[[], object], units: int, repeat: int) -> float:
    """Best-of-``repeat`` throughput of ``fn`` in ``units`` per second."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return units / best if best > 0 else float("inf")


def measure_fast_path(config: SystemConfig, workload: str, refs: int,
                      repeat: int) -> Dict[str, float]:
    """refs/sec of ``simulate()`` on the null system: optimized vs seed."""
    spec = get_workload(workload)
    new_rate = _rate(lambda: simulate(NullMemorySystem(config), spec,
                                      num_references=refs, seed=1),
                     refs, repeat)
    seed_rate = _rate(lambda: legacy.simulate_reference(
        NullMemorySystem(config), spec, num_references=refs, seed=1),
        refs, repeat)
    return {"refs_per_sec": new_rate, "seed_refs_per_sec": seed_rate,
            "speedup": new_rate / seed_rate}


def measure_generator(workload: str, refs: int,
                      repeat: int) -> Dict[str, float]:
    """records/sec of trace generation: vectorized vs seed loop."""
    spec = get_workload(workload)
    new_rate = _rate(lambda: synthetic.generate_trace(spec, refs, seed=1),
                     refs, repeat)
    seed_rate = _rate(lambda: legacy.generate_trace_reference(
        spec, refs, seed=1), refs, repeat)
    return {"records_per_sec": new_rate, "seed_records_per_sec": seed_rate,
            "speedup": new_rate / seed_rate}


def measure_designs(config: SystemConfig, designs: Sequence[str],
                    workload: str, refs: int,
                    repeat: int) -> Dict[str, Dict[str, float]]:
    """Per-design refs/sec through the batch fast path vs the seed engine.

    Both rates run the *same* design model in the same process, so their
    ratio isolates the engine (columnar driver + vectorized kernels vs the
    per-record loop) and is stable across machines — it is what the CI
    per-design matrix gates.
    """
    spec = get_workload(workload)
    rates: Dict[str, Dict[str, float]] = {}
    for label in designs:
        factory = DESIGN_FACTORIES[label.upper()]
        new_rate = _rate(
            lambda factory=factory: simulate(factory(config), spec,
                                             num_references=refs, seed=1),
            refs, repeat)
        seed_rate = _rate(
            lambda factory=factory: legacy.simulate_reference(
                factory(config), spec, num_references=refs, seed=1),
            refs, repeat)
        rates[label.upper()] = {"refs_per_sec": new_rate,
                                "seed_refs_per_sec": seed_rate,
                                "speedup": new_rate / seed_rate}
    return rates


def run_benchmark(*, refs: int = 60_000, workload: str = "mcf",
                  repeat: int = 3,
                  designs: Optional[Sequence[str]] = None,
                  config: Optional[SystemConfig] = None,
                  engine: bool = True,
                  small_refs: int = SMALL_REFS) -> dict:
    """Measure everything and return the ``BENCH_engine.json`` payload.

    ``designs=[]`` skips the per-design section; ``engine=False`` skips the
    engine sections (fast path, generator, small-trace fast path).  The CI
    matrix uses those switches to split the measurement across jobs; the
    default measures everything.
    """
    config = config or make_config(nm_gb=1, fm_gb=16, scale=256)
    if designs is None:
        designs = list(DESIGN_FACTORIES)
    payload = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "refs": refs,
        "workload": workload,
        "repeat": repeat,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if engine:
        payload["fast_path"] = measure_fast_path(config, workload, refs,
                                                 repeat)
        payload["generator"] = measure_generator(workload, refs, repeat)
        if 0 < small_refs < refs:
            payload["small_refs"] = small_refs
            payload["fast_path_small"] = measure_fast_path(
                config, workload, small_refs, repeat)
    if designs:
        payload["designs"] = measure_designs(config, designs, workload,
                                             refs, repeat)
    return payload


def render_report(payload: dict) -> str:
    """Human-readable rendering of a benchmark payload."""
    lines = [
        f"engine benchmark ({payload['refs']} refs, workload "
        f"{payload['workload']}, best of {payload['repeat']})",
    ]
    fast = payload.get("fast_path")
    if fast:
        lines.append(
            f"  fast path  {fast['refs_per_sec']:>12,.0f} refs/s   "
            f"(seed {fast['seed_refs_per_sec']:,.0f}, "
            f"speedup {fast['speedup']:.2f}x)")
    gen = payload.get("generator")
    if gen:
        lines.append(
            f"  generator  {gen['records_per_sec']:>12,.0f} recs/s   "
            f"(seed {gen['seed_records_per_sec']:,.0f}, "
            f"speedup {gen['speedup']:.2f}x)")
    small = payload.get("fast_path_small")
    if small:
        lines.append(
            f"  fast path  {small['refs_per_sec']:>12,.0f} refs/s   "
            f"(seed {small['seed_refs_per_sec']:,.0f}, "
            f"speedup {small['speedup']:.2f}x)  "
            f"[{payload.get('small_refs', SMALL_REFS)} refs]")
    for label, rate in payload.get("designs", {}).items():
        if isinstance(rate, dict):           # schema >= 2
            lines.append(
                f"  {label:<10s} {rate['refs_per_sec']:>12,.0f} refs/s   "
                f"(seed {rate['seed_refs_per_sec']:,.0f}, "
                f"speedup {rate['speedup']:.2f}x)")
        else:                                # schema 1 payloads
            lines.append(f"  {label:<10s} {rate:>12,.0f} refs/s")
    return "\n".join(lines)


def compare_to_baseline(payload: dict, baseline: dict,
                        max_regression: float = 0.30) -> List[str]:
    """Regression check against a stored baseline payload.

    Raw refs/sec varies with the host machine, so the gate compares the
    *speedup ratios* (optimized vs seed engine, measured in the same
    process), which are stable across hardware.  Returns a list of failure
    messages; empty means no regression beyond ``max_regression``.
    """
    failures = []
    floor = 1.0 - max_regression

    def check(label: str, current, base) -> None:
        if base is None or current is None:
            return
        if current < base * floor:
            failures.append(
                f"{label} speedup regressed: {current:.2f}x vs baseline "
                f"{base:.2f}x (floor {base * floor:.2f}x)")

    for section in ("fast_path", "fast_path_small", "generator"):
        check(section,
              payload.get(section, {}).get("speedup"),
              baseline.get(section, {}).get("speedup"))
    base_designs = baseline.get("designs", {})
    for label, rate in payload.get("designs", {}).items():
        base_rate = base_designs.get(label)
        if not isinstance(rate, dict) or not isinstance(base_rate, dict):
            # Schema-1 payloads stored bare refs/sec floats, which are
            # machine-dependent — never gate on those.
            continue
        check(f"design {label}", rate.get("speedup"),
              base_rate.get("speedup"))
    return failures


def write_report(payload: dict, path: str = DEFAULT_REPORT) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
