#!/usr/bin/env python
"""Regenerate (or check) the frozen engine golden,
tests/data/golden/engine_matrix.json.

The golden holds :meth:`RunResult.as_dict` of every design in
:data:`repro.baselines.DESIGN_FACTORIES` on ``mcf``, ``cg.D``, ``omnetpp``
and ``lbm`` at trace seeds 2 and 11, 2,500 references each (1 GB NM,
16 GB FM, footprints scaled by 256).  The workloads cover a high-MPKI
SPEC (multi-programmed, split footprint), a NAS (multi-threaded, shared
footprint), a low-spatial-locality SPEC (the over-fetch paths of the
page-granular caches) and a streaming footprint larger than near memory
(fills, migrations and swaps).

It also holds the configurations the report benches run beyond the
catalog, on ``omnetpp`` and ``lbm`` at seed 2: the four Figure 14
ablations (:data:`repro.core.variants.BREAKDOWN_VARIANTS`, which reach
``cache_only``, ``model_metadata=False`` and both non-default migration
modes), the IDEAL cache at 64 B and 4 KB lines (64 blocks per line) and
DFC at 256 B lines.

``tests/test_engine_equivalence.py`` runs :func:`repro.sim.simulator.simulate`
on the same matrix and compares every counter with ``==``; floats
round-trip exactly through JSON.  Regenerate the file only on purpose,
when a model change is meant to move the counters.

Usage::

    PYTHONPATH=src python tools/make_engine_golden.py [--out PATH]
    PYTHONPATH=src python tools/make_engine_golden.py --check

``--check`` recomputes the matrix and exits 1, naming every cell and
counter that differs, instead of writing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.baselines import (DESIGN_FACTORIES, DecoupledFusedCache,
                             IdealCache)
from repro.core.variants import BREAKDOWN_VARIANTS
from repro.params import make_config
from repro.sim.simulator import simulate
from repro.workloads.catalog import get_workload

DEFAULT_OUT = (Path(__file__).resolve().parents[1]
               / "tests" / "data" / "golden" / "engine_matrix.json")
CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
REFS = 2500
WORKLOADS = ("mcf", "cg.D", "omnetpp", "lbm")
SEEDS = (2, 11)

#: Configurations outside the catalog, by the name each system reports.
EXTRA_FACTORIES = {
    **{name: factory for name, factory in BREAKDOWN_VARIANTS.items()
       if name not in DESIGN_FACTORIES},
    "IDEAL-64": lambda config: IdealCache(config, line_size=64),
    "IDEAL-4096": lambda config: IdealCache(config, line_size=4096),
    "DFC-256": lambda config: DecoupledFusedCache(config, line_size=256),
}
EXTRA_WORKLOADS = ("omnetpp", "lbm")
EXTRA_SEEDS = (2,)
FACTORIES = {**DESIGN_FACTORIES, **EXTRA_FACTORIES}


def cell_name(design: str, workload: str, seed: int) -> str:
    return f"{design}/{workload}/{seed}"


def cells() -> List[tuple]:
    """``(name, design, workload, seed)`` of every cell, in file order."""
    grid = [(sorted(DESIGN_FACTORIES), WORKLOADS, SEEDS),
            (list(EXTRA_FACTORIES), EXTRA_WORKLOADS, EXTRA_SEEDS)]
    return [(cell_name(design, workload, seed), design, workload, seed)
            for designs, workloads, seeds in grid
            for design in designs
            for workload in workloads
            for seed in seeds]


def run_cell(design: str, workload: str, seed: int) -> dict:
    system = FACTORIES[design](CONFIG)
    return simulate(system, get_workload(workload), num_references=REFS,
                    seed=seed).as_dict()


def build() -> Dict[str, dict]:
    return {name: run_cell(design, workload, seed)
            for name, design, workload, seed in cells()}


def diff(got: dict, expected: dict) -> List[str]:
    """Names of the counters (``stats.*`` flattened) that differ."""
    out = [key for key in expected
           if key != "stats" and got.get(key) != expected[key]]
    stats, want = got.get("stats", {}), expected.get("stats", {})
    out += [f"stats.{key}" for key in sorted(set(stats) | set(want))
            if stats.get(key) != want.get(key)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--check", action="store_true",
                        help="compare against --out instead of writing it")
    args = parser.parse_args(argv)
    golden = build()
    if args.check:
        expected = json.loads(args.out.read_text())
        bad = sorted(set(golden) ^ set(expected))
        for name in bad:
            print(f"{name}: cell missing", file=sys.stderr)
        for name in sorted(set(golden) & set(expected)):
            changed = diff(golden[name], expected[name])
            if changed:
                bad.append(name)
                print(f"{name}: {', '.join(changed)} diverged",
                      file=sys.stderr)
        print(f"{len(golden) - len(bad)}/{len(golden)} cells match "
              f"{args.out.name}")
        return 1 if bad else 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    # One cell per line: compact, yet a change names the cell it touched.
    lines = [f" {json.dumps(name)}: {json.dumps(golden[name])}"
             for name, *_ in cells()]
    args.out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
