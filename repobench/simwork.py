"""``sim-migrate`` and ``sim-cache-hit``: in-process ``simulate()`` cells.

Each round simulates every (design, workload) cell once, with a fresh
memory system built outside the timed call.  Rounds repeat until the
run's seconds are used up; rates and latencies are medians over rounds,
and every round must reproduce the first round's cells bit for bit.
Cell times are scaled to the reference speed with calibrations taken
between cells (see :func:`common.to_reference`).
"""

from __future__ import annotations

import resource
import time
from typing import Dict, List, Tuple

from . import common
from .common import Outcome
from .tracing import Tracer, installed, layer_metrics, require_reached

CELLS = {
    # Footprints of 3.1 GB and 4 GB over 1 GB of NM: migrations and fills
    # make repro.memory block transfers most of the host time.
    "sim-migrate": (("HYBRID2", "CHA", "MPOD", "LGM"), ("lbm", "dc.B"),
                    16_000),
    # Hot sets that fit in NM: essentially no block transfers, so the
    # time sits in the driver loop, the step closures and the kernels.
    "sim-cache-hit": (("BASELINE", "TAGLESS", "DFC"), ("mcf", "omnetpp"),
                      60_000),
}
TINY_REFS = 2_000
#: Per-layer metrics a traced run of each workload must find non-zero.
REACHED_BOTH = ("workloads.generate_s", "design.fast_path_s",
                "design.step_self_s", "driver.self_s",
                "memory.kernel_line_per_kref")
REACHED = {
    # The migrating designs move blocks through the controller chain, the
    # cache-hit ones fill lines through the block kernel.
    "sim-migrate": REACHED_BOTH + ("memory.transfer_block_calls",
                                   "memory.transfer_block_s",
                                   "memory.ctrl_access_per_kref"),
    "sim-cache-hit": REACHED_BOTH + ("memory.kernel_block_per_kref",),
}
#: Block transfers per 10k references a sim-cache-hit cell may make.
CACHE_HIT_TRANSFERS = 1.0

SETUP_CODE = """\
from repro.baselines import DESIGN_FACTORIES
from repro.params import make_config
from repro.sim.simulator import simulate
from repro.workloads.catalog import get_workload
config = make_config(**{config!r})
systems = [DESIGN_FACTORIES[d](config) for d in {designs!r}]"""

#: ``(design, workload, reference seconds, raw seconds, result)``.
Cell = Tuple[str, str, float, float, dict]


def _round(designs, workloads, refs: int, seed: int,
           on_cell=None) -> List[Cell]:
    """Simulate every cell once.  ``on_cell(cell_id)`` is called after
    each cell."""
    import repro.sim.simulator as simulator
    from repro.baselines import DESIGN_FACTORIES
    from repro.workloads.catalog import get_workload

    config = common.bench_config()
    cells = []
    speed = common.calibrate()
    for workload in workloads:
        spec = get_workload(workload)
        for design in designs:
            system = DESIGN_FACTORIES[design](config)
            start = time.perf_counter()
            # Looked up per call so a traced run sees its wrapper.
            result = simulator.simulate(system, spec, refs, seed=seed)
            raw = time.perf_counter() - start
            before, speed = speed, common.calibrate()
            cells.append((design, workload,
                          common.to_reference(raw, before, speed), raw,
                          result.as_dict()))
            if on_cell is not None:
                on_cell(f"{design}/{workload}")
    return cells


def _check_round(outcome: Outcome, cells: List[Cell], refs: int,
                 reference: Dict[str, str]) -> Dict[str, str]:
    expected = common.measured_refs(common.synthetic_records(refs))
    return outcome.check_cells(
        ((f"{d}/{w}", result, expected) for d, w, _, _, result in cells),
        reference)


def _rate(cells: List[Cell], design: str = "", raw: bool = False) -> float:
    chosen = [c for c in cells if not design or c[0] == design]
    return (sum(c[4]["references"] for c in chosen)
            / sum(c[3 if raw else 2] for c in chosen))


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool) -> Outcome:
    designs, workloads, refs = CELLS[name]
    refs = TINY_REFS if tiny else refs
    outcome = Outcome(name)
    scratch = common.fresh_dir(common.WORK / f"run-{name}")
    if trace:
        return _traced(outcome, name, designs, workloads, refs, seed)

    setup = common.SetupProbe(
        SETUP_CODE.format(config=common.BENCH_CONFIG, designs=designs),
        scratch)
    wanted = 1 if tiny else common.SETUP_SAMPLES
    rounds: List[List[Cell]] = []
    reference: Dict[str, str] = {}
    spent = 0.0                     # in rounds; set-up samples not counted
    while not rounds or spent < seconds:
        start = time.perf_counter()
        cells = _round(designs, workloads, refs, seed)
        spent += time.perf_counter() - start
        digests = _check_round(outcome, cells, refs, reference)
        reference = reference or digests
        rounds.append(cells)
        if len(setup.samples) < wanted:
            setup.sample()
    setup_s = setup.median(wanted)

    per_cell: Dict[str, List[float]] = {}
    for cells in rounds:
        for design, workload, ref_s, _, _ in cells:
            per_cell.setdefault(f"{design}/{workload}", []).append(ref_s)
    # Mean ms per simulate() call in a round: the median over cells would
    # sit in the gap between the fast and the slow designs.
    call_ms = [sum(c[2] for c in cells) * 1000.0 / len(cells)
               for cells in rounds]
    refs_per_s = common.median([_rate(cells) for cells in rounds])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (refs_per_s, "1/s"),
        "latency_ms": (common.median(call_ms), "ms"),
        "tail_latency_ms": (max(common.median(s) for s in per_cell.values())
                            * 1000.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    outcome.named = {
        "setup_s": (setup_s, "s"),
        "sim_refs_per_s": (refs_per_s, "refs/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    if "HYBRID2" in designs:
        outcome.named["hybrid2_refs_per_s"] = (
            common.median([_rate(c, "HYBRID2") for c in rounds]), "refs/s")
    unscaled = common.median([_rate(c, raw=True) for c in rounds])
    outcome.notes.append(
        f"{len(rounds)} rounds of {len(per_cell)} cells, {refs} refs per "
        f"cell; unscaled {unscaled:.0f} refs/s")
    outcome.digest = common.combined_digest(reference)
    return outcome


def _traced(outcome: Outcome, name: str, designs, workloads, refs: int,
            seed: int) -> Outcome:
    """One untraced round, then one traced round of the same cells."""
    start = time.perf_counter()
    plain = _round(designs, workloads, refs, seed)
    plain_s = time.perf_counter() - start
    reference = _check_round(outcome, plain, refs, {})
    tracer = Tracer()
    transfers: Dict[str, int] = {}

    def count_transfers(cell_id: str) -> None:
        calls = tracer.calls["memory.transfer_block"]
        transfers[cell_id] = calls - sum(transfers.values())
    with installed(tracer) as observed:
        start = time.perf_counter()
        traced = _round(designs, workloads, refs, seed, count_transfers)
        traced_s = time.perf_counter() - start
    _check_round(outcome, traced, refs, reference)
    records = common.synthetic_records(refs)
    per_10k = {cell: calls * 10_000 / records
               for cell, calls in transfers.items()}
    outcome.notes.append("transfer_block calls per 10k refs: " + ", ".join(
        f"{cell}={rate:.2f}" for cell, rate in per_10k.items()))
    outcome.metrics = layer_metrics(
        tracer, observed, {"trace.overhead_ratio": traced_s / plain_s - 1})
    require_reached(outcome, outcome.metrics, REACHED[name])
    # The split the two workloads exist for: HYBRID2 moves blocks on the
    # migrating workloads, the cache-hit designs essentially never do.
    for cell, rate in per_10k.items():
        if name == "sim-migrate" and cell.startswith("HYBRID2/") \
                and not rate > 0:
            outcome.fail(f"{cell} made no block transfers")
        if name == "sim-cache-hit" and rate > CACHE_HIT_TRANSFERS:
            outcome.fail(f"{cell} made {rate:.2f} block transfers per 10k "
                         f"refs, more than {CACHE_HIT_TRANSFERS:g}")
    outcome.tracer = tracer
    outcome.digest = common.combined_digest(reference)
    return outcome
