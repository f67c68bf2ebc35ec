#!/usr/bin/env python
"""Regenerate (or check) the frozen engine goldens,
tests/data/golden/engine_matrix.json and tests/data/golden/engine_traces.json.

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

The sibling ``engine_traces.json`` pins the trace inputs, recorded
while the seed per-record generator and driver still ran beside the
columnar ones and agreed with them:

* ``generator`` — the SHA-256 of the ``gaps``/``addresses``/``is_write``/
  ``core_ids`` column bytes of every trace of each case: the first six
  catalog workloads through ``generate_trace`` (700 references, seed 5,
  core 3, based at 4 MB), a streaming spec (600 references, seed 2) and
  ``generate_multiprogrammed`` on ``mcf`` (4 cores x 200, seed 3);
* ``corpus`` — :meth:`RunResult.as_dict` of HYBRID2, TAGLESS and CHA on
  the checked-in trace files ``stream8.tsv`` and ``mixed4.csv``
  (1,200 references, seed 1).

Every workload is a literal :class:`WorkloadSpec` in this file
(:data:`SPECS`), the catalog entry as it stood when the goldens were
recorded, so editing the catalog moves no golden cell.

``tests/test_engine_equivalence.py`` and ``tests/test_trace_workload.py``
recompute both files and compare every counter and digest with ``==``;
floats round-trip exactly through JSON.  Regenerate the files only on
purpose, when a model or generator change is meant to move them.

Usage::

    PYTHONPATH=src python tools/make_engine_golden.py [--out PATH]
    PYTHONPATH=src python tools/make_engine_golden.py --check

``--check`` recomputes both files and exits 1, naming every cell,
counter and trace case that differs, instead of writing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.baselines import (DESIGN_FACTORIES, DecoupledFusedCache,
                             IdealCache)
from repro.core.variants import BREAKDOWN_VARIANTS
from repro.params import make_config
from repro.sim.simulator import simulate
from repro.workloads.synthetic import (WorkloadSpec, generate_multiprogrammed,
                                       generate_trace)
from repro.workloads.tracefile import TraceFileWorkload

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = ROOT / "tests" / "data" / "golden" / "engine_matrix.json"
TRACES_NAME = "engine_traces.json"
CORPUS = ROOT / "tests" / "data" / "traces"
CONFIG = make_config(nm_gb=1, fm_gb=16, scale=256)
REFS = 2500


def frozen_spec(name: str, suite: str, mpki_class: str, mpki: float,
                footprint_gb: float, region_coverage: float,
                hot_fraction: float, hot_access_fraction: float,
                write_fraction: float) -> WorkloadSpec:
    """A catalog spec with every field spelled out, defaults included."""
    return WorkloadSpec(
        name=name, suite=suite, mpki_class=mpki_class, mpki=mpki,
        footprint_gb=footprint_gb, region_coverage=region_coverage,
        region_bytes=4096, hot_fraction=hot_fraction,
        hot_access_fraction=hot_access_fraction, hot_region_cap=16,
        write_fraction=write_fraction, streaming=False)


#: Every catalog workload the goldens run, frozen as recorded.
SPECS = {spec.name: spec for spec in (
    frozen_spec("cg.D", "NAS", "high", 90.6, 7.8, 0.45, 0.08, 0.85, 0.25),
    frozen_spec("sp.D", "NAS", "high", 30.1, 11.2, 0.9, 0.12, 0.8, 0.35),
    frozen_spec("bt.D", "NAS", "high", 30.1, 10.7, 0.9, 0.12, 0.8, 0.35),
    frozen_spec("fotonik3d", "SPEC", "high", 28.1, 6.4, 0.95, 0.1, 0.8, 0.3),
    frozen_spec("lbm", "SPEC", "high", 27.4, 3.1, 0.95, 0.15, 0.8, 0.45),
    frozen_spec("bwaves", "SPEC", "high", 26.8, 3.3, 0.92, 0.15, 0.8, 0.3),
    frozen_spec("mcf", "SPEC", "high", 25.8, 0.1, 0.15, 0.1, 0.8, 0.25),
    frozen_spec("omnetpp", "SPEC", "medium", 9.8, 1.5, 0.1, 0.08, 0.85,
                0.3),
)}
WORKLOADS = ("mcf", "cg.D", "omnetpp", "lbm")
SEEDS = (2, 11)
#: The first six catalog entries, the generator cases' workloads.
CATALOG_HEAD = ("cg.D", "sp.D", "bt.D", "fotonik3d", "lbm", "bwaves")

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
    return simulate(system, SPECS[workload], num_references=REFS,
                    seed=seed).as_dict()


def build() -> Dict[str, dict]:
    return {name: run_cell(design, workload, seed)
            for name, design, workload, seed in cells()}


#: Generator cases: name -> the traces they produce.
STREAM_SPEC = WorkloadSpec(name="stream", suite="SPEC", mpki_class="high",
                           mpki=30.0, footprint_gb=4.0, streaming=True)
GENERATOR_CASES: Dict[str, Callable[[], list]] = {
    **{name: (lambda spec=SPECS[name]: [generate_trace(
        spec, 700, seed=5, core_id=3, base_address=1 << 22)])
       for name in CATALOG_HEAD},
    "stream": lambda: [generate_trace(STREAM_SPEC, 600, seed=2)],
    "multiprogrammed/mcf": lambda: generate_multiprogrammed(
        SPECS["mcf"], 200, num_cores=4, seed=3),
}
#: Trace column -> the dtype its bytes are hashed in (fixed byte order).
TRACE_COLUMNS = {"gaps": "<i8", "addresses": "<i8", "is_write": "|b1",
                 "core_ids": "<i8"}

CORPUS_DESIGNS = ("HYBRID2", "TAGLESS", "CHA")
CORPUS_FILES = ("stream8.tsv", "mixed4.csv")
CORPUS_REFS = 1200


def trace_digest(trace) -> dict:
    """Record count and SHA-256 of each column's bytes."""
    digest = {"records": len(trace)}
    for column, dtype in TRACE_COLUMNS.items():
        data = np.ascontiguousarray(getattr(trace, column), dtype=dtype)
        digest[column] = hashlib.sha256(data.tobytes()).hexdigest()
    return digest


def generator_case(name: str) -> List[dict]:
    return [trace_digest(trace) for trace in GENERATOR_CASES[name]()]


def corpus_cells() -> List[tuple]:
    """``(name, design, filename)`` of every corpus cell, in file order."""
    return [(f"{design}/{filename}", design, filename)
            for design in CORPUS_DESIGNS for filename in CORPUS_FILES]


def run_corpus_cell(design: str, path: Path) -> dict:
    """Counters of ``design`` on the trace file at ``path``."""
    workload = TraceFileWorkload.from_path(path)
    return simulate(DESIGN_FACTORIES[design](CONFIG), workload,
                    num_references=CORPUS_REFS, seed=1).as_dict()


def build_traces() -> Dict[str, dict]:
    # Load the corpus from a copy, so no mmap cache lands beside the
    # checked-in files.
    with tempfile.TemporaryDirectory() as tmp:
        for filename in CORPUS_FILES:
            shutil.copy(CORPUS / filename, tmp)
        corpus = {name: run_corpus_cell(design, Path(tmp) / filename)
                  for name, design, filename in corpus_cells()}
    return {"generator": {name: generator_case(name)
                          for name in GENERATOR_CASES},
            "corpus": corpus}


def diff(got: dict, expected: dict) -> List[str]:
    """Names of the counters (``stats.*`` flattened) that differ."""
    out = [key for key in expected
           if key != "stats" and got.get(key) != expected[key]]
    stats, want = got.get("stats", {}), expected.get("stats", {})
    out += [f"stats.{key}" for key in sorted(set(stats) | set(want))
            if stats.get(key) != want.get(key)]
    return out


def check_cells(golden: Dict[str, dict], expected: Dict[str, dict],
                label: str) -> int:
    """Print every missing or diverged cell; return how many there are."""
    bad = sorted(set(golden) ^ set(expected))
    for name in bad:
        print(f"{name}: cell missing", file=sys.stderr)
    for name in sorted(set(golden) & set(expected)):
        changed = diff(golden[name], expected[name])
        if changed:
            bad.append(name)
            print(f"{name}: {', '.join(changed)} diverged", file=sys.stderr)
    print(f"{len(golden) - len(bad)}/{len(golden)} {label} match")
    return len(bad)


def check_generator(golden: Dict[str, list], expected: Dict[str, list],
                    label: str) -> int:
    bad = [name for name in sorted(set(golden) | set(expected))
           if golden.get(name) != expected.get(name)]
    for name in bad:
        print(f"generator {name}: trace columns diverged", file=sys.stderr)
    print(f"{len(golden) - len(bad)}/{len(golden)} {label} match")
    return len(bad)


def dump(rows: Dict[str, object], indent: str = " ") -> str:
    """One entry per line: compact, yet a change names the entry it
    touched."""
    lines = [f"{indent}{json.dumps(name)}: {json.dumps(row)}"
             for name, row in rows.items()]
    return "{\n" + ",\n".join(lines) + "\n" + indent[:-1] + "}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="engine golden; engine_traces.json goes "
                             "beside it")
    parser.add_argument("--check", action="store_true",
                        help="compare against the files instead of "
                             "writing them")
    args = parser.parse_args(argv)
    traces_path = args.out.with_name(TRACES_NAME)
    golden = build()
    traces = build_traces()
    if args.check:
        expected = json.loads(traces_path.read_text())
        bad = (check_cells(golden, json.loads(args.out.read_text()),
                           f"cells of {args.out.name}")
               + check_cells(traces["corpus"], expected.get("corpus", {}),
                             f"corpus cells of {traces_path.name}")
               + check_generator(traces["generator"],
                                 expected.get("generator", {}),
                                 f"generator cases of {traces_path.name}"))
        return 1 if bad else 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dump({name: golden[name] for name, *_ in cells()},
                             indent=" ") + "\n")
    traces_path.write_text(
        "{\n"
        + ",\n".join(f' {json.dumps(section)}: {dump(rows, indent="  ")}'
                     for section, rows in traces.items())
        + "\n}\n")
    print(f"wrote {args.out} and {traces_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
