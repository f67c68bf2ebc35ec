#!/usr/bin/env python
"""Regenerate the frozen DRAM-timing golden, tests/data/golden/dram_timing.json.

The golden records, for six seeded schedules, every latency the memory
controller returned and the controller's full state afterwards (traffic
and energy counters, every bank's open row, readiness and event counts,
every channel's bus occupancy):

* ``line_hbm2`` / ``line_ddr4`` — 400 random line accesses of all three
  traffic classes (demand, background, metadata);
* ``block`` / ``block_ddr4`` — 60 random block transfers of 64 B to
  4 KB on HBM2 and on DDR4;
* ``block_unaligned`` — 120 block transfers of 1 B to 4 KB starting at
  any line, so most begin or end inside an aligned span, on a 3-channel
  HBM2 map whose channel interleave (4 KB) exceeds its row (1 KB);
* ``interleaved`` — 400 DDR4 line accesses, every third through
  :meth:`MemoryController.access` and the rest through the controller's
  line kernel (:attr:`MemoryController.line_access`), sharing one state.

``tests/test_fastpath.py`` replays the schedules and compares against the
file with float ``==``, so any change to the timing or energy arithmetic
shows up as a diff.  Floats round-trip exactly through JSON.

Usage::

    PYTHONPATH=src python tools/make_dram_golden.py [--out PATH]
    PYTHONPATH=src python tools/make_dram_golden.py --check

``--check`` replays every case and exits 1, naming each case whose
latencies or state differ from the file, instead of writing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.common import LINE_SIZE
from repro.memory.controller import MemoryController
from repro.params import ddr4_params, hbm2_params

DEFAULT_OUT = (Path(__file__).resolve().parents[1]
               / "tests" / "data" / "golden" / "dram_timing.json")


def controller_state(controller: MemoryController) -> dict:
    """Every counter and timestamp of ``controller``, JSON-shaped."""
    return {
        "demand_bytes": controller.demand_bytes,
        "background_bytes": controller.background_bytes,
        "metadata_bytes": controller.metadata_bytes,
        "reads": controller.reads,
        "writes": controller.writes,
        "read_bytes": controller.read_bytes,
        "write_bytes": controller.write_bytes,
        "rw_pj": controller.rw_energy_pj,
        "act_pre_pj": controller.act_pre_energy_pj,
        # Banks in slot order (channel-major); -1 (precharged) is null.
        "banks": [
            [None if open_row < 0 else open_row, ready, hits, misses, acts]
            for open_row, ready, hits, misses, acts in zip(
                controller.open_row, controller.ready_at_ns,
                controller.row_hits, controller.row_misses,
                controller.activations)
        ],
        "buses": [list(bus) for bus in zip(controller.bus_free_at_ns,
                                            controller.busy_ns)],
    }


def line_schedule(seed: int, n: int = 400) -> List[tuple]:
    """``(address, is_write, kind, now_ns)`` line accesses, time-ordered."""
    rng = np.random.default_rng(seed)
    addresses = (rng.integers(0, 1 << 28, size=n) // LINE_SIZE) * LINE_SIZE
    writes = rng.random(n) < 0.3
    kinds = rng.integers(0, 3, size=n)
    times = np.cumsum(rng.random(n) * 40.0)
    return list(zip(addresses.tolist(), writes.tolist(), kinds.tolist(),
                    times.tolist()))


def block_schedule(seed: int, n: int = 60) -> List[tuple]:
    """``(address, nbytes, is_write, now_ns, demand)`` block transfers."""
    rng = np.random.default_rng(seed)
    now = 0.0
    out = []
    for _ in range(n):
        address = int(rng.integers(0, 1 << 24)) * LINE_SIZE
        nbytes = int(rng.choice([64, 256, 1024, 2048, 4096]))
        is_write = bool(rng.random() < 0.5)
        demand = bool(rng.random() < 0.5)
        now += float(rng.random() * 200.0)
        out.append((address, nbytes, is_write, now, demand))
    return out


def unaligned_schedule(seed: int, n: int = 120) -> List[tuple]:
    """Like :func:`block_schedule`, with any start line and any size."""
    rng = np.random.default_rng(seed)
    now = 0.0
    out = []
    for _ in range(n):
        address = int(rng.integers(0, 1 << 20)) * LINE_SIZE
        nbytes = int(rng.integers(1, 4097))
        is_write = bool(rng.random() < 0.5)
        demand = bool(rng.random() < 0.5)
        now += float(rng.random() * 200.0)
        out.append((address, nbytes, is_write, now, demand))
    return out


#: A map no Table 1 device has: three channels (a period that is not a
#: power of two) and a channel interleave wider than the row.
ODD_MAP = dataclasses.replace(hbm2_params(1 << 27), channels=3,
                              channel_interleave_bytes=4096, row_bytes=1024)


def run_line(params, seed: int, route: str) -> dict:
    """Replay :func:`line_schedule` on a fresh controller.

    ``route`` is ``"controller"`` (:meth:`MemoryController.access`),
    ``"kernels"`` (the controller's line kernel, fed
    :meth:`~MemoryController.locate`'s ``(slot, row)``) or
    ``"mixed"`` (the controller for every third access, else the kernel).
    """
    controller = MemoryController(params)
    line_access = controller.line_access
    latencies = []
    for i, (address, is_write, kind, now_ns) in enumerate(
            line_schedule(seed)):
        if route == "kernels" or (route == "mixed" and i % 3):
            latency = line_access(*controller.locate(address),
                                  is_write, now_ns, kind)
        else:
            latency = controller.access(address, is_write, now_ns,
                                        demand=(kind == 0),
                                        metadata=(kind == 2))
        latencies.append(latency)
    return {"latencies": latencies, "state": controller_state(controller)}


def run_block(params, seed: int, route: str,
              schedule: Callable[[int], List[tuple]] = block_schedule
              ) -> dict:
    controller = MemoryController(params)
    transfer = (controller.transfer_block if route == "controller"
                else controller.block_transfer)
    latencies = [transfer(address, nbytes, is_write, now, demand)
                 for address, nbytes, is_write, now, demand
                 in schedule(seed)]
    return {"latencies": latencies, "state": controller_state(controller)}


#: Case name -> ``run(route)``; the golden is written from the
#: ``"controller"`` route (``"mixed"`` for ``interleaved``).
CASES: Dict[str, Callable[[str], dict]] = {
    "line_hbm2": lambda route: run_line(hbm2_params(1 << 27), 7, route),
    "line_ddr4": lambda route: run_line(ddr4_params(1 << 27), 7, route),
    "block": lambda route: run_block(hbm2_params(1 << 27), 3, route),
    "interleaved": lambda route: run_line(ddr4_params(1 << 28), 11, "mixed"),
    "block_ddr4": lambda route: run_block(ddr4_params(1 << 27), 5, route),
    "block_unaligned": lambda route: run_block(ODD_MAP, 13, route,
                                               unaligned_schedule),
}


def build() -> Dict[str, dict]:
    return {name: run("controller") for name, run in CASES.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--check", action="store_true",
                        help="compare against the file instead of "
                             "writing it")
    args = parser.parse_args(argv)
    golden = build()
    if args.check:
        expected = json.loads(args.out.read_text())
        bad = sorted(name for name in set(CASES) | set(expected)
                     if expected.get(name) != golden.get(name))
        for name in bad:
            print(f"{name}: latencies or state diverged", file=sys.stderr)
        print(f"{len(CASES) - len(bad)}/{len(CASES)} cases of "
              f"{args.out.name} match")
        return 1 if bad else 0
    # One case per line: compact, yet a change names the case it touched.
    lines = [f" {json.dumps(name)}: {json.dumps(golden[name])}"
             for name in CASES]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
